// Package fluid computes the paper's idealized electrically-switched
// baselines, ESN (Ideal) and ESN-OSUB (Ideal) (§7).
//
// The paper defines these baselines as upper bounds: per-flow queues and
// back-pressure at every switch with packet spraying across all paths of a
// folded Clos — "an upper bound on the performance achievable by any rate
// control and routing protocol". The steady state of that idealization is
// exactly max-min fair bandwidth allocation subject to the fabric's
// capacity constraints: each endpoint's NIC in both directions and, for
// the oversubscribed variant, each rack's aggregation capacity. This
// package computes that allocation with progressive filling, re-evaluated
// at every flow arrival and completion, and integrates flow progress
// exactly between events.
//
// # Performance model
//
// The event loop is engineered for throughput and byte-stable output
// (see DESIGN.md §6 for the full discussion):
//
//   - The active set is a dense struct-of-arrays flow table with
//     swap-remove deletion — no maps, no per-flow heap objects. Iteration
//     order is deterministic by construction, so float accumulation
//     (window goodput, FCT sums) is run-to-run identical, which the old
//     map-based loop was not.
//   - Arrivals are consumed from the (already sorted) input by a cursor;
//     the next completion is an exact min-reduction fused with the
//     progress-integration pass over the dense table. Integration MUST
//     touch every positive-rate flow per event anyway — the pre-rewrite
//     solver decremented `remaining` per event, and reproducing its
//     output bit-for-bit (the golden-fixture contract) forbids lazy
//     "virtual finish time" bookkeeping whose float drift, while tiny,
//     would change completions by ulps. Fusing the min into that
//     mandatory pass makes next-event selection free.
//   - The max-min solver keeps, across events, each constraint's
//     membership count, its fair share caps[c]/counts[c] (at most four
//     divisions per event), an intrusive linked list of the flows that
//     cross it, and a 16-way tournament tree over the shares keyed by
//     (share, index), whose root is exactly the constraint the reference
//     ascending strict-< scan selects. Each solve restores its scratch
//     state with memcopies and marks frozen flows with an epoch stamp. A
//     progressive-filling round takes its bottleneck from the tree root,
//     freezes only the flows on the bottleneck's list, and pays once per
//     constraint it touched: one share division and one repair of the
//     tree groups that hold it. The steady-state event loop performs
//     zero heap allocations (pinned by TestEventLoopZeroAlloc).
//
// Run-to-run determinism note: the pre-rewrite implementation iterated a
// Go map when accumulating the window-goodput integral, so GoodputNorm
// jittered in its last one or two bits between runs. The dense table
// fixes the summation order; output is now fully deterministic.
package fluid

import (
	"context"
	"fmt"
	"math"
	"sort"

	"sirius/internal/metrics"
	"sirius/internal/simtime"
	"sirius/internal/telemetry"
	"sirius/internal/workload"
)

// Config parameterizes the fabric.
type Config struct {
	// Endpoints is the number of attached endpoints (servers, or racks
	// when comparing at rack granularity).
	Endpoints int
	// EndpointRate is each endpoint's NIC rate in both directions.
	EndpointRate simtime.Rate
	// EndpointsPerRack groups endpoints into racks for the oversubscribed
	// variant; 0 or 1 disables the rack tier.
	EndpointsPerRack int
	// Oversub is the aggregation-tier oversubscription ratio: inter-rack
	// capacity per rack is EndpointsPerRack*EndpointRate/Oversub.
	// 1 = non-blocking (ESN Ideal).
	Oversub int
	// BaseRTT is added to every flow completion time (propagation and
	// switching latency floor).
	BaseRTT simtime.Duration
}

// Results mirrors the core simulator's results for comparison.
type Results struct {
	Flows            int
	Completed        int
	SimTime          simtime.Time
	DeliveredBytes   int64
	GoodputNorm      float64 // over the arrival window (see core.Results)
	MakespanGoodput  float64 // over the full makespan
	FCTAll, FCTShort metrics.Sample
}

// Process-wide telemetry series, resolved once, that Counters reads so
// cmd/siriussim can print a flows/sec summary per experiment without
// threading state through the harness (mirrors core.Counters).
// Cumulative across every Run in the process; updated once per completed
// run, not per event.
var (
	flowsCompleted  = telemetry.Default.Counter("sirius_fluid_flows_completed_total")
	eventsProcessed = telemetry.Default.Counter("sirius_fluid_events_total")
)

// Counters reports the cumulative number of flows completed and events
// (arrivals plus completions) processed by every Run in this process.
// Snapshot before and after a workload to compute its flows/sec.
func Counters() (flows, events int64) {
	return flowsCompleted.Value(), eventsProcessed.Value()
}

// Run simulates the flows to completion.
func Run(cfg Config, flows []workload.Flow) (*Results, error) {
	return RunContext(context.Background(), cfg, flows)
}

// RunContext is Run with cancellation: the event loop polls ctx
// periodically and returns ctx.Err() when it is done, mirroring
// core.RunContext so sweep workers over the ESN baseline abort promptly.
func RunContext(ctx context.Context, cfg Config, flows []workload.Flow) (*Results, error) {
	e, err := newEngine(cfg, flows)
	if err != nil {
		return nil, err
	}
	for !e.done() {
		// Poll for cancellation every so many events; each event does
		// O(active) work, so this bounds the abort latency tightly.
		if e.events++; e.events&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if err := e.step(); err != nil {
			return nil, err
		}
	}
	return e.finish(), nil
}

// sortedByArrival reports whether the flows are already in non-decreasing
// arrival order (workload.Generate guarantees it, so the common case
// skips the defensive copy + stable sort entirely).
func sortedByArrival(flows []workload.Flow) bool {
	for i := 1; i < len(flows); i++ {
		if flows[i].Arrival < flows[i-1].Arrival {
			return false
		}
	}
	return true
}

// engine is the dense event-loop state. One engine runs one workload;
// step() processes a single event (arrival or completion) so tests can
// drive and measure the loop directly.
type engine struct {
	cfg     Config
	ordered []workload.Flow
	next    int   // arrival cursor into ordered
	events  int64 // events processed (cancellation-poll cadence)
	rounds  int64 // bottleneck rounds across every allocate() pass
	freezes int64 // flow freezes across every allocate() pass

	now        float64 // seconds
	windowEnd  float64 // last arrival: goodput window end
	windowBits float64
	deliveredB int64

	res *Results

	// Dense active-flow table (struct of arrays, swap-remove on
	// completion). Backing arrays are sized to len(flows) up front — the
	// peak active count cannot exceed it — so the loop never reallocates.
	nAct      int
	remaining []float64 // bits
	rate      []float64 // bits/s
	cons      [][4]int32
	bytes     []int
	arrival   []simtime.Time
	frozen    []int64 // allocate() epoch stamps, parallel to the table

	// Max-min solver state. Constraint layout: [0,n) endpoint egress,
	// [n,2n) endpoint ingress, then per-rack egress and ingress when
	// oversubscribed.
	//
	// shares0 caches caps0[c]/counts0[c] (the round-0 fair share of every
	// constraint; +Inf when unused) and is maintained incrementally as
	// flows arrive and depart — at most four divisions per event. Inside
	// allocate the scratch copy is recomputed once per round for each
	// constraint the round touched, so the bottleneck search divides
	// nothing. The cached value is computed by the same expression the
	// reference implementation evaluated inline
	// (caps[c]/float64(counts[c])), so the tree observes bit-identical
	// shares and selects bit-identical bottlenecks.
	nCons    int
	rackBase int
	caps0    []float64 // capacities (bits/s)
	counts0  []int32   // live membership counts, maintained incrementally
	shares0  []float64 // live caps0/counts0 cache (+Inf when counts0 == 0)
	caps     []float64 // allocate() scratch
	counts   []int32   // allocate() scratch
	shares   []float64 // allocate() scratch share cache
	epoch    int64     // allocate() invocation stamp

	// Bottleneck selection: kt0 holds the tree's winners over shares0
	// (at most four constraints to repair per event); allocate()
	// memcopies it into kt and repairs that after each round.
	tree    tree
	kt0     []int32
	kt      []int32
	touched []int64 // per constraint: the last round (e.rounds) that changed it
	dirty   []int32 // cap nCons: constraints to repair, in touch order

	// Member lists, one intrusive doubly linked list per constraint,
	// kept across events: node 4*slot+k stands for the k-th constraint
	// of the flow in table slot `slot`. A round freezes the flows on its
	// bottleneck's list; every flow frozen in a round subtracts the same
	// share with the same clamp, so the visiting order changes no value
	// and the lists need no order.
	head []int32 // per constraint: first node, -1 when empty
	succ []int32 // per node: the next node, -1 at the end of a list
	pred []int32 // per node: the previous node, -1 at the head of a list
}

func newEngine(cfg Config, flows []workload.Flow) (*engine, error) {
	switch {
	case cfg.Endpoints < 2:
		return nil, fmt.Errorf("fluid: need >= 2 endpoints")
	case cfg.EndpointRate <= 0:
		return nil, fmt.Errorf("fluid: non-positive endpoint rate")
	case cfg.Oversub < 1:
		return nil, fmt.Errorf("fluid: oversub must be >= 1")
	case cfg.Oversub > 1 && cfg.EndpointsPerRack < 1:
		return nil, fmt.Errorf("fluid: oversubscription needs a rack grouping")
	case cfg.EndpointsPerRack > 0 && cfg.Endpoints%cfg.EndpointsPerRack != 0:
		return nil, fmt.Errorf("fluid: endpoints must divide into racks")
	case len(flows) == 0:
		return nil, fmt.Errorf("fluid: no flows")
	}
	for i, f := range flows {
		if f.Src < 0 || f.Src >= cfg.Endpoints || f.Dst < 0 || f.Dst >= cfg.Endpoints ||
			f.Src == f.Dst || f.Bytes < 1 {
			return nil, fmt.Errorf("fluid: invalid flow %+v", f)
		}
		if f.ID != i {
			return nil, fmt.Errorf("fluid: flow IDs must equal their index (flow %d has ID %d)", i, f.ID)
		}
	}
	// Sort by arrival. workload.Generate already emits sorted flows, so
	// the defensive copy + stable sort only runs on unsorted input.
	ordered := flows
	if !sortedByArrival(flows) {
		ordered = make([]workload.Flow, len(flows))
		copy(ordered, flows)
		sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	}

	e := &engine{
		cfg:       cfg,
		ordered:   ordered,
		windowEnd: ordered[len(ordered)-1].Arrival.Seconds(),
		res:       &Results{Flows: len(flows)},
		remaining: make([]float64, len(flows)),
		rate:      make([]float64, len(flows)),
		cons:      make([][4]int32, len(flows)),
		bytes:     make([]int, len(flows)),
		arrival:   make([]simtime.Time, len(flows)),
		frozen:    make([]int64, len(flows)),
	}
	// Every flow completes exactly once: reserving the samples up front
	// keeps the event loop free of append-regrowth allocations.
	e.res.FCTAll.Reserve(len(flows))
	e.res.FCTShort.Reserve(len(flows))

	n := cfg.Endpoints
	e.nCons = 2 * n
	e.rackBase = 2 * n
	rackCap := 0.0
	racks := 0
	if cfg.Oversub > 1 {
		racks = n / cfg.EndpointsPerRack
		e.nCons += 2 * racks
		rackCap = float64(cfg.EndpointRate) * float64(cfg.EndpointsPerRack) / float64(cfg.Oversub)
	}
	e.caps0 = make([]float64, e.nCons)
	for i := 0; i < 2*n; i++ {
		e.caps0[i] = float64(cfg.EndpointRate)
	}
	for i := 0; i < 2*racks; i++ {
		e.caps0[e.rackBase+i] = rackCap
	}
	e.caps = make([]float64, e.nCons)
	e.counts0 = make([]int32, e.nCons)
	e.counts = make([]int32, e.nCons)
	e.shares0 = make([]float64, e.nCons)
	e.shares = make([]float64, e.nCons)
	e.head = make([]int32, e.nCons)
	for i := range e.shares0 {
		e.shares0[i] = math.Inf(1) // no members yet
		e.head[i] = -1
	}
	e.succ = make([]int32, 4*len(flows))
	e.pred = make([]int32, 4*len(flows))
	e.tree = newTree(e.nCons)
	e.kt0 = make([]int32, e.tree.size())
	e.kt = make([]int32, e.tree.size())
	e.tree.build(e.kt0, e.shares0)
	e.touched = make([]int64, e.nCons)
	e.dirty = make([]int32, 0, e.nCons)
	return e, nil
}

// link pushes node (4*slot+k, the k-th constraint of the flow in table
// slot `slot`) onto constraint c's member list.
func (e *engine) link(c, node int32) {
	h := e.head[c]
	e.succ[node], e.pred[node] = h, -1
	if h >= 0 {
		e.pred[h] = node
	}
	e.head[c] = node
}

// unlink removes node from constraint c's member list.
func (e *engine) unlink(c, node int32) {
	p, n := e.pred[node], e.succ[node]
	if p >= 0 {
		e.succ[p] = n
	} else {
		e.head[c] = n
	}
	if n >= 0 {
		e.pred[n] = p
	}
}

// constraintsFor returns the constraint indices of a flow, -1 padded.
func (e *engine) constraintsFor(src, dst int) [4]int32 {
	n := e.cfg.Endpoints
	c := [4]int32{int32(src), int32(n + dst), -1, -1}
	if e.cfg.Oversub > 1 {
		srcRack := src / e.cfg.EndpointsPerRack
		dstRack := dst / e.cfg.EndpointsPerRack
		if srcRack != dstRack { // intra-rack traffic skips the aggregation tier
			racks := n / e.cfg.EndpointsPerRack
			c[2] = int32(e.rackBase + srcRack)
			c[3] = int32(e.rackBase + racks + dstRack)
		}
	}
	return c
}

func (e *engine) done() bool { return e.nAct == 0 && e.next >= len(e.ordered) }

// step advances the simulation by one event (the earlier of the next
// arrival and the next completion), then recomputes max-min rates.
func (e *engine) step() error {
	// Next arrival time, if any.
	arrival := math.Inf(1)
	if e.next < len(e.ordered) {
		arrival = e.ordered[e.next].Arrival.Seconds()
	}
	// Next completion time under current rates: an exact min-reduction
	// over the dense table (ties resolve to the lowest table index).
	completion := math.Inf(1)
	doneIdx := -1
	now := e.now
	for i := 0; i < e.nAct; i++ {
		r := e.rate[i]
		if r <= 0 {
			continue
		}
		if t := now + e.remaining[i]/r; t < completion {
			completion, doneIdx = t, i
		}
	}
	if math.IsInf(arrival, 1) && math.IsInf(completion, 1) {
		return fmt.Errorf("fluid: stalled with %d active flows", e.nAct)
	}

	if arrival <= completion {
		e.integrate(arrival - now)
		e.now = arrival
		fl := e.ordered[e.next]
		e.next++
		i := e.nAct
		e.nAct++
		e.remaining[i] = float64(fl.Bytes) * 8
		e.rate[i] = 0
		e.bytes[i] = fl.Bytes
		e.arrival[i] = fl.Arrival
		cs := e.constraintsFor(fl.Src, fl.Dst)
		e.cons[i] = cs
		dirty := e.dirty[:0]
		for k, c := range cs {
			if c >= 0 {
				e.counts0[c]++
				e.shares0[c] = e.caps0[c] / float64(e.counts0[c])
				e.link(c, int32(4*i+k))
				dirty = append(dirty, c)
			}
		}
		e.tree.repair(e.kt0, e.shares0, dirty)
	} else {
		e.integrate(completion - now)
		e.now = completion
		e.res.Completed++
		e.deliveredB += int64(e.bytes[doneIdx])
		fct := simtime.Duration((completion-e.arrival[doneIdx].Seconds())*float64(simtime.Second)) + e.cfg.BaseRTT
		ms := fct.Seconds() * 1e3
		e.res.FCTAll.Add(ms)
		if e.bytes[doneIdx] < 100_000 {
			e.res.FCTShort.Add(ms)
		}
		if t := simtime.Time(completion * float64(simtime.Second)); t > e.res.SimTime {
			e.res.SimTime = t
		}
		// Swap-remove from the dense table.
		dirty := e.dirty[:0]
		for k, c := range e.cons[doneIdx] {
			if c >= 0 {
				if e.counts0[c]--; e.counts0[c] > 0 {
					e.shares0[c] = e.caps0[c] / float64(e.counts0[c])
				} else {
					e.shares0[c] = math.Inf(1)
				}
				e.unlink(c, int32(4*doneIdx+k))
				dirty = append(dirty, c)
			}
		}
		e.tree.repair(e.kt0, e.shares0, dirty)
		last := e.nAct - 1
		if doneIdx != last {
			for k, c := range e.cons[last] {
				if c >= 0 {
					e.unlink(c, int32(4*last+k))
					e.link(c, int32(4*doneIdx+k))
				}
			}
			e.remaining[doneIdx] = e.remaining[last]
			e.rate[doneIdx] = e.rate[last]
			e.cons[doneIdx] = e.cons[last]
			e.bytes[doneIdx] = e.bytes[last]
			e.arrival[doneIdx] = e.arrival[last]
		}
		e.nAct = last
	}
	e.allocate()
	return nil
}

// integrate advances every active flow by dt seconds at its current rate
// and accrues the goodput-window integral. Zero-rate flows are skipped:
// x - 0*dt == x and windowBits + 0 == windowBits exactly, so the skip is
// arithmetically identical to the reference implementation.
func (e *engine) integrate(dt float64) {
	if dt <= 0 {
		return
	}
	overlap := dt
	if e.now+dt > e.windowEnd {
		overlap = e.windowEnd - e.now
	}
	remaining, rate := e.remaining, e.rate
	if overlap > 0 {
		var bits float64
		for i := 0; i < e.nAct; i++ {
			r := rate[i]
			if r == 0 {
				continue
			}
			v := remaining[i] - r*dt
			if v < 0 {
				v = 0
			}
			remaining[i] = v
			bits += r * overlap
		}
		e.windowBits += bits
		return
	}
	for i := 0; i < e.nAct; i++ {
		r := rate[i]
		if r == 0 {
			continue
		}
		v := remaining[i] - r*dt
		if v < 0 {
			v = 0
		}
		remaining[i] = v
	}
}

// allocate computes max-min fair rates for the active flows by
// progressive filling. The resulting rate vector is the unique max-min
// solution and is independent of flow iteration order (within a round
// every frozen flow subtracts the same share with the same clamp, and
// float subtraction of a repeated constant commutes), so visiting the
// member lists in any order reproduces the reference ascending-table
// implementation bit for bit. The counts, shares and tree winners kept
// across events are restored into scratch with memcopies, and frozen
// flows are marked with an epoch stamp instead of a freshly allocated
// bool slice.
//
// A round pays once per constraint it touched, not once per freeze: the
// freeze loop only subtracts from caps and counts, and the touched
// shares are recomputed, and the tree repaired, after it. That is exact
// because nothing reads a share between two freezes of one round, and
// the next round reads the same expression on the same operands.
func (e *engine) allocate() {
	copy(e.caps, e.caps0)
	copy(e.counts, e.counts0)
	copy(e.shares, e.shares0)
	copy(e.kt, e.kt0)
	e.epoch++
	epoch := e.epoch
	caps, counts, shares, kt := e.caps, e.counts, e.shares, e.kt
	frozen, cons, succ, touched := e.frozen, e.cons, e.succ, e.touched
	rate := e.rate[:e.nAct]
	clear(rate)
	root := len(kt) - 1
	unfrozen := e.nAct
	for unfrozen > 0 {
		e.rounds++
		round := e.rounds
		// The tree root is the lowest-index constraint among the smallest
		// shares: what the reference ascending strict-< scan selects.
		b := kt[root]
		bestShare := shares[b]
		if math.IsInf(bestShare, 1) {
			break // no constraint has members (defensive, as before)
		}
		// Freeze every unfrozen flow crossing the bottleneck. After the
		// loop every member is frozen, so counts[b] is 0 and shares[b]
		// becomes +Inf: each bottleneck is selected at most once.
		dirty := e.dirty[:0]
		for node := e.head[b]; node >= 0; node = succ[node] {
			i := node / 4
			if frozen[i] == epoch {
				continue
			}
			frozen[i] = epoch
			unfrozen--
			e.freezes++
			rate[i] = bestShare
			for _, c := range &cons[i] {
				if c < 0 {
					continue
				}
				caps[c] -= bestShare
				if caps[c] < 0 {
					caps[c] = 0
				}
				counts[c]--
				if touched[c] != round {
					touched[c] = round
					dirty = append(dirty, c)
				}
			}
		}
		if unfrozen == 0 {
			break
		}
		for _, c := range dirty {
			if counts[c] > 0 {
				shares[c] = caps[c] / float64(counts[c])
			} else {
				shares[c] = math.Inf(1)
			}
		}
		e.tree.repair(kt, shares, dirty)
	}
}

// finish assembles the Results and publishes the process-wide counters.
func (e *engine) finish() *Results {
	res := e.res
	res.DeliveredBytes = e.deliveredB
	denom := float64(e.cfg.Endpoints) * float64(e.cfg.EndpointRate)
	if res.SimTime > 0 {
		res.MakespanGoodput = float64(e.deliveredB) * 8 / (res.SimTime.Seconds() * denom)
	}
	if e.windowEnd > 0 {
		res.GoodputNorm = e.windowBits / (e.windowEnd * denom)
	} else {
		res.GoodputNorm = res.MakespanGoodput
	}
	// Telemetry flush: the event loop only bumps plain int64 fields
	// (rounds, freezes, events), keeping TestEventLoopZeroAlloc intact;
	// the registry is touched once per run, here.
	reg := telemetry.Default
	reg.Counter("sirius_fluid_runs_total").Inc()
	eventsProcessed.Add(e.events)
	reg.Counter("sirius_fluid_bottleneck_rounds_total").Add(e.rounds)
	reg.Counter("sirius_fluid_freezes_total").Add(e.freezes)
	flowsCompleted.Add(int64(res.Completed))
	return res
}
