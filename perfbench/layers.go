package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/metrics"
)

// accountingTol bounds trace.unaccounted_frac: the share of the traced
// pass's lane time (wall time, plus the extra sweep workers' time while
// the sweep runs) that no layer span, set-up or sweep idleness explains.
// What remains is the benchmark's own bookkeeping between calls.
const accountingTol = 0.05

type metricDef struct{ name, unit string }

// perLayer lists every metric of a traced run. Each workload reports
// all of them; a layer it does not call reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"workload.gen_s", "s"}, {"setup.busy_s", "s"}}
	for _, f := range families {
		defs = append(defs, metricDef{"sched." + f + ".plans", "count"}, metricDef{"sched." + f + ".plan_busy_s", "s"},
			metricDef{"sched." + f + ".plan_p50_us", "us"}, metricDef{"sched." + f + ".plan_p99_us", "us"})
	}
	defs = append(defs, metricDef{"core.busy_s", "s"}, metricDef{"core.cells", "count"}, metricDef{"core.slots", "count"},
		metricDef{"core.cells_per_busy_s", "1/s"}, metricDef{"core.alloc_mb", "MB"})
	for _, f := range families {
		defs = append(defs, metricDef{"core." + f + ".busy_s", "s"})
	}
	return append(defs,
		metricDef{"fluid.busy_s", "s"}, metricDef{"fluid.esn_busy_s", "s"}, metricDef{"fluid.osub_busy_s", "s"},
		metricDef{"fluid.flows", "count"}, metricDef{"fluid.events", "count"}, metricDef{"fluid.flows_per_busy_s", "1/s"},
		metricDef{"fluid.alloc_mb", "MB"},
		metricDef{"sweep.points", "count"}, metricDef{"sweep.busy_s", "s"}, metricDef{"sweep.idle_s", "s"},
		metricDef{"sweep.point_max_s", "s"}, metricDef{"sweep.worker_idle_frac", "ratio"},
		metricDef{"wire.busy_s", "s"}, metricDef{"wire.frames_routed", "count"}, metricDef{"wire.frames_per_s", "1/s"},
		metricDef{"wire.parked_peak", "count"}, metricDef{"wire.epoch_p50_us", "us"}, metricDef{"wire.epoch_p99_us", "us"},
		metricDef{"wire.dropped", "count"}, metricDef{"wire.misrouted", "count"}, metricDef{"wire.bit_errors", "count"},
		metricDef{"runtime.gc_cycles", "count"}, metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.pass_s", "s"}, metricDef{"trace.lane_s", "s"}, metricDef{"trace.unaccounted_frac", "ratio"},
		metricDef{"trace.overhead_frac", "ratio"}, metricDef{"trace.dropped", "count"},
	)
}()

// tracedPass is one pass, set-up included, run with every layer call
// inside a span, plus the process counters read around it.
type tracedPass struct {
	tr          *tracer
	run         float64 // seconds of the pass after set-up
	gcCycles    uint32
	gcPause     time.Duration
	cells       int64
	slots       int64
	fluidFlows  int64
	fluidEvents int64
}

func (b *bench) tracedPass(ctx context.Context) (*tracedPass, error) {
	tr := newTracer()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, s0 := core.Counters()
	f0, e0 := fluid.Counters()

	root := tr.start("pass", "bench", 0, 0)
	su := tr.start("setup", "setup", root.id, 0)
	err := b.w.setup(tr, su.id)
	su.end()
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	rs := tr.start("run", "bench", root.id, 0)
	ops := b.w.pass(ctx, tr, rs.id)
	run := time.Since(rs.begin).Seconds()
	rs.end()
	root.end()

	runtime.ReadMemStats(&m1)
	c1, s1 := core.Counters()
	f1, e1 := fluid.Counters()
	b.check(ops)
	return &tracedPass{tr: tr, run: run, gcCycles: m1.NumGC - m0.NumGC,
		gcPause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
		cells:   c1 - c0, slots: s1 - s0, fluidFlows: f1 - f0, fluidEvents: e1 - e0}, nil
}

// metrics derives the per-layer metrics from the pass's spans and
// counters. It reports false when the trace lost events or leaves more
// of the lane time unexplained than accountingTol.
func (tp *tracedPass) metrics(b *bench, overhead float64) (map[string]metric, bool) {
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, m[name].Unit}
	}
	per := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}

	nodes, self := selfTimes(tp.tr.t.Events())
	busy := map[string]float64{}
	var pass, sweepWall, pointSum, pointMax float64
	var points int
	for i, n := range nodes {
		s, dur := float64(self[i])/1e6, float64(n.dur)/1e6
		switch {
		case n.name == "pass":
			pass = dur
		case n.name == "sweep.Run":
			sweepWall = dur
		case n.layer == "bench": // the benchmark's own spans are no layer's time
		default:
			busy[n.layer] += s
		}
		switch n.name {
		case "sched.Plan":
			busy["sched."+n.args["family"]] += s
		case "core.Run":
			busy["core."+n.args["family"]] += s
		case "fluid.Run":
			busy["fluid."+n.args["variant"]] += s
		case "sweep.point":
			points++
			pointSum += dur
			pointMax = math.Max(pointMax, dur)
		}
	}

	set("workload.gen_s", busy["workload"])
	set("setup.busy_s", busy["setup"])
	for _, f := range families {
		set("sched."+f+".plan_busy_s", busy["sched."+f])
		if s := tp.tr.plans[f]; s != nil && s.Count() > 0 {
			set("sched."+f+".plans", float64(s.Count()))
			set("sched."+f+".plan_p50_us", s.Percentile(50))
			set("sched."+f+".plan_p99_us", s.Percentile(99))
		}
		set("core."+f+".busy_s", busy["core."+f])
	}
	set("core.busy_s", busy["core"])
	set("core.cells", float64(tp.cells))
	set("core.slots", float64(tp.slots))
	set("core.cells_per_busy_s", per(float64(tp.cells), busy["core"]))
	set("core.alloc_mb", float64(tp.tr.alloc["core"])/1e6)
	set("fluid.busy_s", busy["fluid"])
	set("fluid.esn_busy_s", busy["fluid.esn"])
	set("fluid.osub_busy_s", busy["fluid.osub"])
	set("fluid.flows", float64(tp.fluidFlows))
	set("fluid.events", float64(tp.fluidEvents))
	set("fluid.flows_per_busy_s", per(float64(tp.fluidFlows), busy["fluid"]))
	set("fluid.alloc_mb", float64(tp.tr.alloc["fluid"])/1e6)

	// Lane time: the pass's wall time, plus the time the extra sweep
	// workers had while the sweep ran. Worker time no point used is
	// sweep idleness.
	workers := float64(tp.tr.workers)
	lanes, idle := pass, 0.0
	if workers > 0 {
		lanes += (workers - 1) * sweepWall
		idle = workers*sweepWall - pointSum
	}
	set("sweep.points", float64(points))
	set("sweep.busy_s", busy["sweep"])
	set("sweep.idle_s", idle)
	set("sweep.point_max_s", pointMax)
	set("sweep.worker_idle_frac", per(idle, workers*sweepWall))

	set("wire.busy_s", busy["wire"])
	if wf, ok := b.w.(*wireFabric); ok && wf.stats != nil {
		fs := wf.stats
		var misrouted, bitErrs float64
		for _, n := range fs.Nodes {
			misrouted += float64(n.Misrouted)
			bitErrs += float64(n.BitErrors)
		}
		var epochs metrics.Sample
		for _, ev := range tp.tr.t.Events() {
			if ev.Cat == "wire.node" && ev.Name == "epoch" {
				epochs.Add(float64(ev.Dur))
			}
		}
		set("wire.frames_routed", float64(fs.Routed))
		set("wire.frames_per_s", per(float64(fs.Routed), busy["wire"]))
		set("wire.parked_peak", wf.registry.Gauge("sirius_awgr_parked_frames_peak").Value())
		if epochs.Count() > 0 {
			set("wire.epoch_p50_us", epochs.Percentile(50))
			set("wire.epoch_p99_us", epochs.Percentile(99))
		}
		set("wire.dropped", float64(fs.Dropped+fs.GreyDropped))
		set("wire.misrouted", misrouted)
		set("wire.bit_errors", bitErrs)
	}

	set("runtime.gc_cycles", float64(tp.gcCycles))
	set("runtime.gc_pause_ms", tp.gcPause.Seconds()*1e3)

	var accounted float64
	for layer, v := range busy {
		if !strings.Contains(layer, ".") { // a whole layer, not a per-family split
			accounted += v
		}
	}
	unaccounted := per(lanes-accounted-idle, lanes)
	dropped := tp.tr.t.Dropped()
	set("trace.pass_s", pass)
	set("trace.lane_s", lanes)
	set("trace.unaccounted_frac", unaccounted)
	set("trace.overhead_frac", overhead)
	set("trace.dropped", float64(dropped))
	ok := dropped == 0 && math.Abs(unaccounted) <= accountingTol
	if !ok {
		fmt.Fprintf(b.log, "perfbench: trace dropped %d events; %.4f of lane time unaccounted (tolerance %.2f)\n",
			dropped, unaccounted, accountingTol)
	}
	return m, ok
}
