package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
	"sirius/internal/wire"
	"sirius/internal/workload"
)

// A workload is one fixed body of work composed from the layers' public
// entry points. setup builds every input of a pass (flows, schedules,
// planners, the emulator's listener) and is timed as setup_s; pass runs
// the work once and returns one checked result per layer run.
type benchWorkload interface {
	// inputs derives the workload's inputs from the seed, once per run.
	inputs(seed uint64) error
	setup(tr *tracer, parent int64) error
	pass(ctx context.Context, tr *tracer, parent int64) []op
	// sizes describes the inputs for the run's provenance line.
	sizes() map[string]any
}

// op is the checked outcome of one layer run: a core, fluid or family
// run, or one wire fabric run. err is non-nil when the run failed or its
// output broke an invariant; digest hashes the simulated results.
type op struct {
	name   string
	err    error
	digest string
}

// fabric is a rack-level Sirius fabric at the paper's default
// provisioning: 8 base uplinks per rack at 50 Gb/s, 1.5x uplinks for
// the VLB detour.
type fabric struct {
	Racks, Ports int
}

func (f fabric) nodeRate() simtime.Rate {
	return simtime.Rate(f.Racks/f.Ports) * 50 * simtime.Gbps
}

func (f fabric) uplinks() int {
	return int(math.Round(float64(f.Racks/f.Ports) * 1.5))
}

// staticSchedule is the fabric's fixed cyclic schedule: grouped when the
// uplinks divide evenly over the groups, the generalized rotor otherwise.
func (f fabric) staticSchedule() (schedule.Schedule, error) {
	groups, up := f.Racks/f.Ports, f.uplinks()
	if up%groups == 0 {
		return schedule.NewGrouped(f.Racks, f.Ports, up/groups)
	}
	return schedule.NewRotor(f.Racks, up)
}

// flowSpec is one §7 flow sample: Pareto(1.05) sizes, Poisson arrivals.
//
// Pareto(1.05) samples swing several-fold from seed to seed in offered
// volume, and a run lasts until its busiest destination has drained,
// which one elephant flow can dominate. So every seed gets its own flows
// but the same amount of work: the benchmark takes the first of the
// seed's substreams whose offered volume is within volumeTol of Bytes
// and whose busiest destination's share of it is within busiestTol of
// Busiest (both targets are medians of the distribution).
type flowSpec struct {
	Flows     int
	MeanBytes float64
	HotFrac   float64 // 0 = uniform endpoints, else the share sent to node 0
	Bytes     float64
	Busiest   float64
}

const (
	volumeTol  = 0.03
	busiestTol = 0.05
)

func (s flowSpec) config(f fabric, load float64, seed uint64) workload.Config {
	cfg := workload.DefaultConfig(f.Racks, f.nodeRate(), load, s.Flows)
	cfg.MeanFlowBytes = s.MeanBytes
	cfg.Seed = seed
	if s.HotFrac > 0 {
		cfg.Pattern = workload.Hotspot
		cfg.HotFraction = s.HotFrac
	}
	return cfg
}

// sampleSeed returns the generator seed of the workload seed's sample.
// Load only rescales arrival times, so the choice holds at every load.
func (s flowSpec) sampleSeed(f fabric, seed uint64) (uint64, error) {
	perDst := make([]int64, f.Racks)
	for i := uint64(0); i < 5000; i++ {
		sub := rng.PointSeed(seed, i)
		fl, err := workload.Generate(s.config(f, 0.5, sub))
		if err != nil {
			return 0, err
		}
		total := float64(workload.TotalBytes(fl))
		if math.Abs(total/s.Bytes-1) > volumeTol {
			continue
		}
		clear(perDst)
		var busiest int64
		for _, fl := range fl {
			perDst[fl.Dst] += int64(fl.Bytes)
			busiest = max(busiest, perDst[fl.Dst])
		}
		if math.Abs(float64(busiest)/total/s.Busiest-1) <= busiestTol {
			return sub, nil
		}
	}
	return 0, fmt.Errorf("no flow sample near %.3g bytes with busiest share %.3g for seed %d", s.Bytes, s.Busiest, seed)
}

// simInputs is what the simulation workloads share: a fabric, a flow
// spec, the workload seed and the generator seed of its flow sample.
type simInputs struct {
	Fabric       fabric
	Spec         flowSpec
	seed, sample uint64
}

func (in *simInputs) inputs(seed uint64) error {
	sample, err := in.Spec.sampleSeed(in.Fabric, seed)
	in.seed, in.sample = seed, sample
	return err
}

func (in *simInputs) sizes() map[string]any {
	return map[string]any{"racks": in.Fabric.Racks, "grating_ports": in.Fabric.Ports, "uplinks": in.Fabric.uplinks(),
		"flows": in.Spec.Flows, "mean_flow_bytes": in.Spec.MeanBytes, "hot_frac": in.Spec.HotFrac,
		"offered_bytes": in.Spec.Bytes, "busiest_share": in.Spec.Busiest, "sample_seed": in.sample}
}

// generate draws the sample, traced as a workload-layer span.
func (s flowSpec) generate(f fabric, load float64, seed uint64, tr *tracer, parent int64) ([]workload.Flow, error) {
	sp := tr.start("workload.Generate", "workload", parent, 0)
	defer sp.end()
	return workload.Generate(s.config(f, load, seed))
}

// coreRun runs the slot-level core once and checks its output.
func coreRun(ctx context.Context, name string, cfg core.Config, flows []workload.Flow, offered int64, tr *tracer, parent int64, lane int, family string) op {
	sp := tr.start("core.Run", "core", parent, lane)
	sp.arg("family", family)
	if tr != nil && cfg.Planner != nil {
		cfg.Planner = &timedPlanner{Planner: cfg.Planner, tr: tr, parent: sp.id, lane: lane, family: family}
	}
	var res *core.Results
	var err error
	tr.measureAlloc("core", func() { res, err = core.RunContext(ctx, cfg, flows) })
	sp.end()
	if err != nil {
		return op{name: name, err: err}
	}
	return op{name: name, err: checkSim(res.Flows, res.Completed, res.DeliveredBytes, offered), digest: coreDigest(res)}
}

// fluidRun runs the fluid ESN baseline once and checks its output.
func fluidRun(ctx context.Context, name, variant string, cfg fluid.Config, flows []workload.Flow, offered int64, tr *tracer, parent int64, lane int) op {
	name += variant
	sp := tr.start("fluid.Run", "fluid", parent, lane)
	sp.arg("variant", variant)
	var res *fluid.Results
	var err error
	tr.measureAlloc("fluid", func() { res, err = fluid.RunContext(ctx, cfg, flows) })
	sp.end()
	if err != nil {
		return op{name: name, err: err}
	}
	return op{name: name, err: checkSim(res.Flows, res.Completed, res.DeliveredBytes, offered), digest: fluidDigest(res)}
}

// fig9 is the paper's load sweep as `siriussim -exp fig9` runs it at the
// small scale: one sweep point per load, each running SIRIUS, SIRIUS
// (IDEAL), ESN and ESN-OSUB on one flow sample, fanned out over nproc
// sweep workers.
type fig9 struct {
	simInputs
	Loads []float64

	flows  [][]workload.Flow
	bytes  []int64
	scheds [][2]schedule.Schedule // per point: SIRIUS, SIRIUS (IDEAL)
}

func (w *fig9) sizes() map[string]any {
	m := w.simInputs.sizes()
	m["loads"], m["sweep_parallel"] = w.Loads, runtime.NumCPU()
	return m
}

func (w *fig9) setup(tr *tracer, parent int64) error {
	var err error
	w.flows = make([][]workload.Flow, len(w.Loads))
	w.bytes = make([]int64, len(w.Loads))
	w.scheds = make([][2]schedule.Schedule, len(w.Loads))
	for i, load := range w.Loads {
		if w.flows[i], err = w.Spec.generate(w.Fabric, load, w.sample, tr, parent); err != nil {
			return err
		}
		w.bytes[i] = workload.TotalBytes(w.flows[i])
		for m := range w.scheds[i] {
			if w.scheds[i][m], err = w.Fabric.staticSchedule(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *fig9) pass(ctx context.Context, tr *tracer, parent int64) []op {
	perPoint := make([][]op, len(w.Loads))
	pts := make([]sweep.Point, len(w.Loads))
	sp := tr.start("sweep.Run", "sweep", parent, 0)
	for i, load := range w.Loads {
		i, load := i, load
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("fig9|load=%g", load),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				lane := i + 1
				pt := tr.start("sweep.point", "sweep", sp.id, lane)
				pt.arg("load", strconv.FormatFloat(load, 'g', -1, 64))
				defer pt.end()
				flows, offered := w.flows[i], w.bytes[i]
				name := fmt.Sprintf("load=%g/", load)
				base := core.Config{Slot: phy.DefaultSlot(), Q: 4, NormalizeRate: w.Fabric.nodeRate(), Seed: seed}
				rg, ideal := base, base
				rg.Schedule, rg.Mode = w.scheds[i][0], core.ModeRequestGrant
				ideal.Schedule, ideal.Mode = w.scheds[i][1], core.ModeIdeal
				esn := fluid.Config{Endpoints: w.Fabric.Racks, EndpointRate: w.Fabric.nodeRate(),
					Oversub: 1, BaseRTT: simtime.Microsecond}
				osub := esn
				osub.Oversub, osub.EndpointsPerRack = 3, w.Fabric.Ports
				perPoint[i] = []op{
					coreRun(ctx, name+"sirius", rg, flows, offered, tr, pt.id, lane, ""),
					coreRun(ctx, name+"ideal", ideal, flows, offered, tr, pt.id, lane, ""),
					fluidRun(ctx, name, "esn", esn, flows, offered, tr, pt.id, lane),
					fluidRun(ctx, name, "osub", osub, flows, offered, tr, pt.id, lane),
				}
				return nil, nil
			},
		}
	}
	rn := &sweep.Runner{Parallel: runtime.NumCPU(), RootSeed: w.seed}
	_, err := rn.Run(ctx, "fig9", pts)
	sp.end()
	tr.sweepWorkers(rn.Manifests())
	var ops []op
	for i, p := range perPoint {
		if p == nil {
			ops = append(ops, op{name: fmt.Sprintf("load=%g", w.Loads[i]), err: fmt.Errorf("sweep point did not run: %v", err)})
		}
		ops = append(ops, p...)
	}
	return ops
}

// families are the scheduler families in run order.
var families = []string{"static", "rotorrr", "pulse", "negotiator"}

// archReconfigSlots is archcompare's per-circuit reconfiguration
// penalty, in slots.
const archReconfigSlots = 1

// schedFamilies is archcompare's skewed point: every family drives the
// core through Config.Planner on the same flow sample.
type schedFamilies struct {
	simInputs
	Load float64

	flows    []workload.Flow
	bytes    int64
	planners []core.Planner
	modes    []core.Mode
}

func (w *schedFamilies) sizes() map[string]any {
	m := w.simInputs.sizes()
	m["load"], m["families"], m["reconfig_slots"] = w.Load, families, archReconfigSlots
	return m
}

func (w *schedFamilies) setup(tr *tracer, parent int64) error {
	var err error
	if w.flows, err = w.Spec.generate(w.Fabric, w.Load, w.sample, tr, parent); err != nil {
		return err
	}
	w.bytes = workload.TotalBytes(w.flows)
	n, up, slots := w.Fabric.Racks, w.Fabric.uplinks(), w.Fabric.Ports
	w.planners, w.modes = w.planners[:0], w.modes[:0]
	for _, fam := range families {
		sp := tr.start("sched.New", "sched", parent, 0)
		sp.arg("family", fam)
		var p core.Planner
		mode := core.ModeDirect
		switch fam {
		case "static":
			var st schedule.Schedule
			if st, err = w.Fabric.staticSchedule(); err == nil {
				p, mode = sched.NewStatic(st), core.ModeRequestGrant
			}
		case "rotorrr":
			p, err = sched.NewRotorRR(n, up, slots, archReconfigSlots)
			mode = core.ModeIdeal
		case "pulse":
			p, err = sched.NewPULSE(n, up, slots, archReconfigSlots, 0)
		case "negotiator":
			p, err = sched.NewNegotiaToR(n, up, slots, archReconfigSlots, 0)
		}
		sp.end()
		if err != nil {
			return fmt.Errorf("%s planner: %w", fam, err)
		}
		w.planners, w.modes = append(w.planners, p), append(w.modes, mode)
	}
	return nil
}

func (w *schedFamilies) pass(ctx context.Context, tr *tracer, parent int64) []op {
	ops := make([]op, len(families))
	for i, fam := range families {
		cfg := core.Config{Planner: w.planners[i], Slot: phy.DefaultSlot(), Q: 4, Mode: w.modes[i],
			NormalizeRate: w.Fabric.nodeRate(), Seed: w.seed}
		ops[i] = coreRun(ctx, fam, cfg, w.flows, w.bytes, tr, parent, 0, fam)
	}
	return ops
}

// dense is one static request/grant run at 1024 racks, whose n² core
// state does not fit in cache.
type dense struct {
	simInputs
	Load float64

	flows []workload.Flow
	bytes int64
	sched schedule.Schedule
}

func (w *dense) sizes() map[string]any {
	m := w.simInputs.sizes()
	m["load"] = w.Load
	return m
}

func (w *dense) setup(tr *tracer, parent int64) error {
	var err error
	if w.flows, err = w.Spec.generate(w.Fabric, w.Load, w.sample, tr, parent); err != nil {
		return err
	}
	w.bytes = workload.TotalBytes(w.flows)
	sp := tr.start("schedule.New", "setup", parent, 0)
	w.sched, err = w.Fabric.staticSchedule()
	sp.end()
	return err
}

func (w *dense) pass(ctx context.Context, tr *tracer, parent int64) []op {
	cfg := core.Config{Schedule: w.sched, Slot: phy.DefaultSlot(), Q: 4, Mode: core.ModeRequestGrant,
		NormalizeRate: w.Fabric.nodeRate(), Seed: w.seed}
	return []op{coreRun(ctx, "sirius", cfg, w.flows, w.bytes, tr, parent, 0, "")}
}

// wireFabric is the paper's prototype on the live testbed, widened: the
// AWGR emulator and every node in this process, linked by the fabric's
// own TCP connections over loopback. Nodes gate each epoch on hearing
// every peer's previous one, so the load is a closed loop. At the
// paper's 4 nodes an epoch is a few cells and the pass is bound by
// wake-up latency, whose wall time swung twofold from run to run on a
// shared host; at 32 nodes each epoch carries 992 cells and the pass is
// bound by the CPU, like the wire layer's own throughput benchmark.
type wireFabric struct {
	Nodes, Epochs, Payload int

	seed uint64
	// stats is the last traced pass's fabric, read by the layer metrics.
	stats    *wire.FaultStats
	registry *telemetry.Registry
}

func (w *wireFabric) sizes() map[string]any {
	return map[string]any{"nodes": w.Nodes, "epochs": w.Epochs, "payload_bytes": w.Payload, "flip_prob": 0}
}

// inputs takes the seed for the emulator's corruption substreams; the
// fabric is clean, so every seed carries the same cells.
func (w *wireFabric) inputs(seed uint64) error {
	w.seed = seed
	return nil
}

// setup times the emulator's listen and close: the fabric's only set-up
// work, which RunPrototypeCfg repeats internally on every pass.
func (w *wireFabric) setup(tr *tracer, parent int64) error {
	sp := tr.start("wire.NewEmulator", "setup", parent, 0)
	defer sp.end()
	em, err := wire.NewEmulator(w.Nodes, 0, w.seed)
	if err != nil {
		return err
	}
	return em.Close()
}

func (w *wireFabric) pass(ctx context.Context, tr *tracer, parent int64) []op {
	cfg := wire.PrototypeConfig{Nodes: w.Nodes, Epochs: w.Epochs, PayloadBytes: w.Payload, Seed: w.seed}
	if tr != nil {
		w.registry = telemetry.NewRegistry()
		cfg.Telemetry, cfg.Tracer = w.registry, tr.t
	}
	sp := tr.start("wire.RunPrototype", "wire", parent, 0)
	fs, err := wire.RunPrototypeCfg(cfg)
	sp.end()
	if err != nil {
		return []op{{name: "fabric", err: err}}
	}
	if tr != nil {
		w.stats = fs
	}
	return []op{{name: "fabric", err: checkWire(fs), digest: wireDigest(fs)}}
}

// newWorkload returns the named workload at full or tiny size. The tiny
// sizes keep every layer call of the full workload and exist for the
// self-test.
func newWorkload(name string, tiny bool) (benchWorkload, error) {
	switch name {
	case "fig9_load_sweep":
		w := &fig9{simInputs: simInputs{Fabric: fabric{64, 8}, Spec: flowSpec{Flows: 4000, MeanBytes: 100e3, Bytes: 150e6, Busiest: 0.124}},
			Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}}
		if tiny {
			w.Fabric, w.Spec = fabric{16, 4}, flowSpec{Flows: 200, MeanBytes: 100e3, Bytes: 5.8e6, Busiest: 0.23}
			w.Loads = []float64{0.3, 0.9}
		}
		return w, nil
	case "sched_families":
		w := &schedFamilies{simInputs: simInputs{Fabric: fabric{256, 32},
			Spec: flowSpec{Flows: 4000, MeanBytes: 100e3, HotFrac: 0.5, Bytes: 153e6, Busiest: 0.5}}, Load: 0.7}
		if tiny {
			w.Fabric, w.Spec = fabric{32, 4}, flowSpec{Flows: 300, MeanBytes: 100e3, HotFrac: 0.5, Bytes: 9e6, Busiest: 0.485}
		}
		return w, nil
	case "dense_n1024":
		w := &dense{simInputs: simInputs{Fabric: fabric{1024, 128},
			Spec: flowSpec{Flows: 20000, MeanBytes: 100e3, Bytes: 853e6, Busiest: 0.094}}, Load: 0.7}
		if tiny {
			w.Fabric, w.Spec = fabric{64, 8}, flowSpec{Flows: 500, MeanBytes: 100e3, Bytes: 16e6, Busiest: 0.173}
		}
		return w, nil
	case "wire_fabric":
		w := &wireFabric{Nodes: 32, Epochs: 400, Payload: 562}
		if tiny {
			w.Nodes, w.Epochs = 4, 50
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig9_load_sweep", "sched_families", "dense_n1024", "wire_fabric"}
