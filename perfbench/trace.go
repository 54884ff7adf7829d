package main

import (
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"sirius/internal/core"
	"sirius/internal/metrics"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// traceCapacity holds every event of one traced pass: the wire fabric
// alone records one epoch span per node per epoch (12.8k at full size).
const traceCapacity = 1 << 16

// tracer records the benchmark's layer spans into a telemetry.Tracer,
// linked into a tree by "id"/"parent" args, plus the counts only the
// calling side sees: per-family plan latencies and per-layer allocation.
// A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t    *telemetry.Tracer
	next int64 // last span id handed out; guarded by mu

	mu      sync.Mutex
	plans   map[string]*metrics.Sample // family -> Plan latency, µs
	alloc   map[string]uint64          // layer -> TotalAlloc bytes across its calls
	workers int                        // sweep workers of the last sweep
}

func newTracer() *tracer {
	return &tracer{t: telemetry.NewTracer(traceCapacity), plans: map[string]*metrics.Sample{}, alloc: map[string]uint64{}}
}

// span is one open layer span. The zero span (untraced) ends as a no-op
// and has id 0, so children of it need no special casing.
type span struct {
	tr          *tracer
	id          int64
	name, layer string
	lane        int
	begin       time.Time
	args        map[string]string
}

// start opens a span for a call into layer, as a child of parent (0 for
// a root). lane is the Chrome trace row, one per sweep point.
func (tr *tracer) start(name, layer string, parent int64, lane int) span {
	if tr == nil {
		return span{}
	}
	tr.mu.Lock()
	tr.next++
	id := tr.next
	tr.mu.Unlock()
	return span{tr: tr, id: id, name: name, layer: layer, lane: lane, begin: time.Now(),
		args: map[string]string{"id": strconv.FormatInt(id, 10), "parent": strconv.FormatInt(parent, 10)}}
}

func (s span) arg(k, v string) {
	if s.tr != nil && v != "" {
		s.args[k] = v
	}
}

func (s span) end() {
	if s.tr != nil {
		s.tr.t.Span(s.name, s.layer, s.lane, s.begin, s.args)
	}
}

// measureAlloc runs fn and charges the process's TotalAlloc growth to
// layer. Under the parallel sweep, calls on other workers overlap, so
// fig9's split between core and fluid is approximate.
func (tr *tracer) measureAlloc(layer string, fn func()) {
	if tr == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	tr.mu.Lock()
	tr.alloc[layer] += after.TotalAlloc - before.TotalAlloc
	tr.mu.Unlock()
}

// sweepWorkers notes the worker count of the sweep just run, from the
// runner's manifest.
func (tr *tracer) sweepWorkers(ms []sweep.SweepManifest) {
	if tr == nil || len(ms) == 0 {
		return
	}
	tr.mu.Lock()
	tr.workers = ms[len(ms)-1].Parallel
	tr.mu.Unlock()
}

// timedPlanner wraps a scheduler family so the traced run sees every
// Plan call as a sched-layer span; all other methods pass through.
type timedPlanner struct {
	core.Planner
	tr     *tracer
	parent int64
	lane   int
	family string
}

func (p *timedPlanner) Plan(epoch int64, demand []int32, dst []int32) int {
	sp := p.tr.start("sched.Plan", "sched", p.parent, p.lane)
	sp.arg("family", p.family)
	r := p.Planner.Plan(epoch, demand, dst)
	us := float64(time.Since(sp.begin).Nanoseconds()) / 1e3
	sp.end()
	p.tr.mu.Lock()
	s := p.tr.plans[p.family]
	if s == nil {
		s = &metrics.Sample{}
		p.tr.plans[p.family] = s
	}
	s.Add(us)
	p.tr.mu.Unlock()
	return r
}

// node is one benchmark span of the tree, in trace microseconds.
type node struct {
	name, layer string
	args        map[string]string
	ts, dur     int64
	children    []int
}

// selfTimes returns each benchmark span of events (those carrying an
// "id" arg) with its self time: its duration minus the part of it that
// its children's spans cover. Parallel children may overlap; coverage
// counts their union once.
func selfTimes(events []telemetry.TraceEvent) ([]node, []int64) {
	var nodes []node
	index := map[string]int{}
	for _, ev := range events {
		if ev.Ph != "X" || ev.Args["id"] == "" {
			continue
		}
		index[ev.Args["id"]] = len(nodes)
		nodes = append(nodes, node{name: ev.Name, layer: ev.Cat, args: ev.Args, ts: ev.TS, dur: ev.Dur})
	}
	for i, n := range nodes {
		if p, ok := index[n.args["parent"]]; ok {
			nodes[p].children = append(nodes[p].children, i)
		}
	}
	self := make([]int64, len(nodes))
	for i, n := range nodes {
		ivs := make([][2]int64, 0, len(n.children))
		for _, c := range n.children {
			lo, hi := max(nodes[c].ts, n.ts), min(nodes[c].ts+nodes[c].dur, n.ts+n.dur)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[i] = n.dur - unionLen(ivs)
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return nodes, self
}

// unionLen returns the total length the intervals cover.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	for i, iv := range ivs {
		switch {
		case i == 0 || iv[0] >= end:
			total += iv[1] - iv[0]
			end = iv[1]
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
