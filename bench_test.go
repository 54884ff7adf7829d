// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per experiment id in DESIGN.md §4) plus
// microbenchmarks of the performance-critical substrates and the ablation
// studies of DESIGN.md §5.
//
// The figure benchmarks run the experiment harness at TinyScale per
// iteration so `go test -bench .` completes quickly; run
// `go run ./cmd/siriussim -scale small` (or `-scale paper`) for the
// full-size tables.
package sirius

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"sirius/internal/core"
	"sirius/internal/exp"
	"sirius/internal/fluid"
	"sirius/internal/laser"
	"sirius/internal/optics"
	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/sweep"
	"sirius/internal/wire"
	"sirius/internal/workload"
)

// ---- E1-E3: power and cost analysis (Fig. 2a, 6a, 6b) ----

func BenchmarkFig2aScaleTax(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig2a(); len(tab.Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig6aPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig6a(); len(tab.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig6bCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig6b(); len(tab.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

// ---- E4-E8: optical substrate (tuning stats, Fig. 8a-8d) ----

func BenchmarkTuningPairs(b *testing.B) {
	l := laser.NewDampedDSDBR()
	for i := 0; i < b.N; i++ {
		s := laser.MeasurePairs(l)
		if s.Pairs != 12432 {
			b.Fatal("bad pair count")
		}
	}
}

func BenchmarkFig8aSOACDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig8a(); len(tab.Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig8bWaveforms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig8b(); len(tab.Rows) != 2 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig8cBurst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig8c(); len(tab.Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig8dBER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Fig8d(); len(tab.Rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// ---- E9: time synchronization ----

func BenchmarkTimesync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Timesync(5_000); len(tab.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// ---- E10-E14: network simulation sweeps (Fig. 9-13) ----

func BenchmarkFig9Load(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(context.Background(), nil, s, []float64{0.25, 0.75}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Q(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig10(context.Background(), nil, s, []int{2, 4, 8, 16}, []float64{0.75}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Guardband(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig11(context.Background(), nil, s, []float64{1, 5, 10, 20, 40}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Uplinks(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig12(context.Background(), nil, s, []float64{1, 1.5, 2}, []float64{0.75}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13FlowSize(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig13(context.Background(), nil, s, []float64{512, 4096, 65536}, 0.6); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E15-E17: burstiness analysis, prototype, link budget ----

func BenchmarkPacketMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.Burst(); len(tab.Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkWirePrototype(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Prototype(4, 25); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLinkBudget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := exp.LinkBudget(); len(tab.Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

// ---- Ablations (DESIGN.md §5) ----

// ablationRun runs the tiny-scale workload through the core simulator
// with the given tweaks and reports goodput and p99 as bench metrics.
func ablationRun(b *testing.B, mutate func(*core.Config)) {
	b.Helper()
	sched, err := schedule.NewGrouped(16, 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	wcfg := workload.DefaultConfig(16, 200*simtime.Gbps, 0.75, 400)
	flows, err := workload.Generate(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		NormalizeRate: 200 * simtime.Gbps,
		Seed:          1,
	}
	mutate(&cfg)
	var last *core.Results
	for i := 0; i < b.N; i++ {
		res, err := core.Run(cfg, flows)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.GoodputNorm, "goodput")
		b.ReportMetric(last.FCTShort.Percentile(99)*1000, "p99short-us")
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	ablationRun(b, func(c *core.Config) {})
}

func BenchmarkAblationDirectOff(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.NoDirect = true })
}

func BenchmarkAblationControlLatency(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.InstantControl = true })
}

func BenchmarkAblationIdealBackpressure(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Mode = core.ModeIdeal })
}

// ---- Microbenchmarks of the hot substrates ----

func BenchmarkAWGRRoute(b *testing.B) {
	a := optics.NewAWGR(100)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += a.Route(i%100, optics.Wavelength(i%100))
	}
	_ = sum
}

func BenchmarkScheduleDst(b *testing.B) {
	g, err := schedule.NewGrouped(128, 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += g.Dst(i%128, i%8, i%16)
	}
	_ = sum
}

func BenchmarkLaserTune(b *testing.B) {
	l := laser.NewDampedDSDBR()
	var total simtime.Duration
	for i := 0; i < b.N; i++ {
		total += l.TuneTime(optics.Wavelength(i%112), optics.Wavelength((i*7+3)%112))
	}
	_ = total
}

// ---- BENCH_*.json: one writer for every measured grid ----

// recordBench merges one measured row into BENCH_<layer>.json. The row
// holds metrics plus the GOMAXPROCS it ran under (the garbage collector
// runs on spare CPUs, so even serial code's rows change with it) and
// lands under "after" keyed <name>/gomaxprocs=<n>: a subset run, or a
// run at another -cpu, leaves every other row alone. "config" becomes
// the grid description plus a host note; every other top-level key (the
// embedded baselines, before blocks and notes) is data carried over
// untouched.
func recordBench(b *testing.B, layer, name string, config map[string]any, metrics map[string]float64) {
	b.Helper()
	path := "BENCH_" + layer + ".json"
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(data, &doc) // corrupt artifact: rebuild from scratch
	}
	rows := map[string]json.RawMessage{}
	if prev, ok := doc["after"]; ok {
		_ = json.Unmarshal(prev, &rows)
	}
	set := func(m map[string]json.RawMessage, key string, v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		m[key] = raw
	}
	procs := runtime.GOMAXPROCS(0)
	metrics["gomaxprocs"] = float64(procs)
	config["host"] = fmt.Sprintf("%s/%s, NumCPU %d, %s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	set(rows, fmt.Sprintf("%s/gomaxprocs=%d", name, procs), metrics)
	set(doc, "config", config)
	set(doc, "after", rows)
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		b.Logf("%s not written: %v", path, err)
	}
}

// runCase runs one grid case as a sub-benchmark, starting it under the
// first -cpu value. The harness times a case's first iteration before it
// applies -cpu, under whatever GOMAXPROCS the previous case left, and
// keeps that iteration alone when it outlasts -benchtime: without the
// reset, a -cpu 1,2 run records a slow case (n4096) twice at 2 and
// never at 1.
func runCase(b *testing.B, name string, f func(b *testing.B)) {
	if cpu := flag.Lookup("test.cpu"); cpu != nil {
		if first, err := strconv.Atoi(strings.Split(cpu.Value.String(), ",")[0]); err == nil {
			runtime.GOMAXPROCS(first)
		}
	}
	b.Run(name, f)
}

// coreBenchCases is the cells/sec grid: topology sizes n ∈ {64 .. 4096}
// across the three operating modes. The first case (n64/rg) is the
// historical BenchmarkCoreCellsPerSecond configuration and the PR-to-PR
// comparison anchor; see BENCH_core.json for the recorded trajectory.
var coreBenchCases = []struct {
	name  string
	n     int
	ports int
	flows int
	mode  core.Mode
}{
	{"n64/rg", 64, 8, 2000, core.ModeRequestGrant},
	{"n64/ideal", 64, 8, 2000, core.ModeIdeal},
	{"n64/direct", 64, 8, 2000, core.ModeDirect},
	{"n256/rg", 256, 16, 2000, core.ModeRequestGrant},
	{"n256/ideal", 256, 16, 2000, core.ModeIdeal},
	{"n256/direct", 256, 16, 2000, core.ModeDirect},
	{"n1024/rg", 1024, 32, 4000, core.ModeRequestGrant},
	{"n1024/ideal", 1024, 32, 4000, core.ModeIdeal},
	{"n1024/direct", 1024, 32, 4000, core.ModeDirect},
	{"n4096/rg", 4096, 64, 8000, core.ModeRequestGrant},
	{"n4096/ideal", 4096, 64, 8000, core.ModeIdeal},
	{"n4096/direct", 4096, 64, 8000, core.ModeDirect},
}

func BenchmarkCoreCellsPerSecond(b *testing.B) {
	// End-to-end simulator throughput: cells simulated per wall second,
	// across topology sizes and operating modes. Each case updates its
	// row of BENCH_core.json (recordBench).
	config := map[string]any{
		"load": 0.9, "q": 4, "rate_gbps": 400, "seed": 1,
		"note": "grouped(n, ports, 1) schedule; flows per coreBenchCases",
	}
	for _, tc := range coreBenchCases {
		runCase(b, tc.name, func(b *testing.B) {
			if tc.n >= 4096 && os.Getenv("SIRIUS_N4096") == "" {
				// A single n4096 iteration takes seconds and allocates
				// the n² queue state; the CI n4096-smoke job opts in
				// explicitly, everything else (and `-bench . -benchtime
				// 1x` smoke runs) skips.
				b.Skip("set SIRIUS_N4096=1 to run the n4096 rows")
			}
			sched, err := schedule.NewGrouped(tc.n, tc.ports, 1)
			if err != nil {
				b.Fatal(err)
			}
			wcfg := workload.DefaultConfig(tc.n, 400*simtime.Gbps, 0.9, tc.flows)
			flows, err := workload.Generate(wcfg)
			if err != nil {
				b.Fatal(err)
			}
			var cells int64
			for _, f := range flows {
				cells += int64((f.Bytes + 541) / 542)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := core.Run(core.Config{
					Schedule:      sched,
					Slot:          phy.DefaultSlot(),
					Q:             4,
					Mode:          tc.mode,
					NormalizeRate: 400 * simtime.Gbps,
					Seed:          1,
				}, flows)
				if err != nil {
					b.Fatal(err)
				}
			}
			cellsSec := float64(cells*int64(b.N)) / b.Elapsed().Seconds()
			b.ReportMetric(cellsSec, "cells/s")
			recordBench(b, "core", tc.name, config, map[string]float64{
				"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"cells_per_sec": cellsSec,
			})
		})
	}
}

// ---- The flow-level layer: fluid solver ----

// fluidBenchCases is the flows/sec grid for the max-min fluid solver:
// fabric sizes n ∈ {32, 128, 512} across the non-blocking and 3:1
// oversubscribed variants, plus n64/osub3, the ESN-OSUB shape of the
// headline load sweep (64 racks of 8 ports, 144 constraints). The
// n512/ideal case is the largest and the PR-to-PR comparison anchor; see
// BENCH_fluid.json for the recorded trajectory.
var fluidBenchCases = []struct {
	name    string
	n       int
	epr     int // endpoints per rack (0 disables the rack tier)
	oversub int
	flows   int
	load    float64
}{
	{"n32/ideal", 32, 0, 1, 2000, 0.8},
	{"n32/osub3", 32, 8, 3, 2000, 0.8},
	{"n64/osub3", 64, 8, 3, 4000, 0.8},
	{"n128/ideal", 128, 0, 1, 4000, 0.8},
	{"n128/osub3", 128, 16, 3, 4000, 0.8},
	{"n512/ideal", 512, 0, 1, 8000, 0.8},
}

func BenchmarkFluidFlowsPerSecond(b *testing.B) {
	// End-to-end solver throughput: flows simulated per wall second across
	// fabric sizes and variants. Each case updates its row of
	// BENCH_fluid.json.
	config := map[string]any{
		"load": 0.8, "rate_gbps": 400, "workload_seed": 11,
		"note": "uniform Poisson/Pareto workload per fluidBenchCases; base RTT 1us",
	}
	for _, tc := range fluidBenchCases {
		runCase(b, tc.name, func(b *testing.B) {
			wcfg := workload.DefaultConfig(tc.n, 400*simtime.Gbps, tc.load, tc.flows)
			wcfg.Seed = 11
			flows, err := workload.Generate(wcfg)
			if err != nil {
				b.Fatal(err)
			}
			cfg := fluid.Config{Endpoints: tc.n, EndpointRate: 400 * simtime.Gbps,
				EndpointsPerRack: tc.epr, Oversub: tc.oversub,
				BaseRTT: simtime.Microsecond}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := fluid.Run(cfg, flows)
				if err != nil {
					b.Fatal(err)
				}
				if res.Completed != tc.flows {
					b.Fatal("incomplete run")
				}
			}
			flowsSec := float64(int64(tc.flows)*int64(b.N)) / b.Elapsed().Seconds()
			b.ReportMetric(flowsSec, "flows/s")
			recordBench(b, "fluid", tc.name, config, map[string]float64{
				"ns_per_op":     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"flows_per_sec": flowsSec,
			})
		})
	}
}

// ---- The live wire fabric (internal/wire) ----

// wireBenchCases is the frames/s grid for the live TCP fabric: node
// counts n ∈ {4, 64, 256} × payload sizes {64, 562} bytes, loopback,
// default output batching — plus one 64-node row with batching disabled
// (batch=1, the pre-batching per-frame write behavior) so the artifact
// itself carries the with/without comparison. Epoch counts shrink as n
// grows to keep one iteration at a comparable frame count (n^2 frames
// per epoch).
var wireBenchCases = []struct {
	name    string
	nodes   int
	epochs  int
	payload int
	batch   int // 0 = default policy, 1 = disabled
}{
	{"n4/p64", 4, 200, 64, 0},
	{"n4/p562", 4, 200, 562, 0},
	{"n64/p64", 64, 8, 64, 0},
	{"n64/p562", 64, 8, 562, 0},
	{"n64/p562/batch1", 64, 8, 562, 1},
	{"n256/p64", 256, 2, 64, 0},
	{"n256/p562", 256, 2, 562, 0},
}

// BenchmarkWireFramesPerSecond measures end-to-end fabric throughput:
// frames routed through the emulator per wall second, with every node
// transmitting, receiving and PRBS-verifying concurrently on loopback.
// Each case updates its row of BENCH_wire.json, which records the batch
// policy: a throughput number without its coalescing policy and
// parallelism is not interpretable.
func BenchmarkWireFramesPerSecond(b *testing.B) {
	config := map[string]any{
		"fabric": "loopback TCP AWGR emulator, one process, wireBenchCases grid",
		"note": "routed frames per wall second, whole fabric (emulator + n nodes); " +
			"batch 0 = default policy (16 frames / 32KiB / drain after one yield), batch 1 = per-frame writes; " +
			"PRBS fill and check 7 bytes per step; " +
			"n256 has no pre-change baseline (the fabric was capped at 255 nodes before this grid)",
	}
	for _, tc := range wireBenchCases {
		runCase(b, tc.name, func(b *testing.B) {
			var routed int64
			for i := 0; i < b.N; i++ {
				fs, err := wire.RunPrototypeCfg(wire.PrototypeConfig{
					Nodes:        tc.nodes,
					Epochs:       tc.epochs,
					PayloadBytes: tc.payload,
					BatchFrames:  tc.batch,
				})
				if err != nil {
					b.Fatal(err)
				}
				if fs.BER != 0 {
					b.Fatalf("clean loopback fabric saw BER %v", fs.BER)
				}
				routed += fs.Routed
			}
			framesSec := float64(routed) / b.Elapsed().Seconds()
			b.ReportMetric(framesSec, "frames/s")
			batch := tc.batch
			if batch == 0 {
				batch = wire.DefaultBatchFrames
			}
			recordBench(b, "wire", tc.name, config, map[string]float64{
				"ns_per_op":      float64(b.Elapsed().Nanoseconds()) / float64(b.N),
				"frames_per_sec": framesSec,
				"batch":          float64(batch),
			})
		})
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	cfg := workload.DefaultConfig(128, 400*simtime.Gbps, 0.8, 10_000)
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		if _, err := workload.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRBSFill(b *testing.B) {
	p := phy.NewPRBS(1)
	buf := make([]byte, 562)
	b.SetBytes(562)
	for i := 0; i < b.N; i++ {
		p.Fill(buf)
	}
}

// BenchmarkPRBSCountErrors is the receive side of BenchmarkPRBSFill: the
// wire node re-seeds its checker per cell and counts a 562 B payload's
// bit errors against the sequence.
func BenchmarkPRBSCountErrors(b *testing.B) {
	p := phy.NewPRBS(1)
	buf := make([]byte, 562)
	p.Fill(buf)
	b.SetBytes(562)
	for i := 0; i < b.N; i++ {
		p.Reset(1)
		if p.CountErrors(buf) != 0 {
			b.Fatal("clean payload counted bit errors")
		}
	}
}

func BenchmarkPublicAPIEndToEnd(b *testing.B) {
	cfg := DefaultConfig(16)
	flows := Workload(cfg, 0.5, 200, 1)
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Run(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// E18: §4.5 failures — degraded vs compacted schedules plus detection.
func BenchmarkFailureRecovery(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Failure(context.Background(), nil, s, []int{0, 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDirectOnly(b *testing.B) {
	ablationRun(b, func(c *core.Config) { c.Mode = core.ModeDirect })
}

// §7 deployment at server granularity (package dc).
func BenchmarkServerLevel(b *testing.B) {
	s := exp.TinyScale()
	for i := 0; i < b.N; i++ {
		if _, err := exp.ServerLevel(context.Background(), nil, s, 4, []float64{0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- The sweep engine (internal/sweep) ----

// BenchmarkSweepParallel measures the fig9 sweep on the parallel engine
// (GOMAXPROCS workers, no cache); BenchmarkSweepSerial is its 1-worker
// reference. Their rows of BENCH_sweep.json at one gomaxprocs give the
// speedup.
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, "parallel", runtime.GOMAXPROCS(0)) }

func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, "serial", 1) }

// benchSweep runs the tiny fig9 sweep on the given number of workers and
// records it as the named row of BENCH_sweep.json.
func benchSweep(b *testing.B, name string, workers int) {
	s := exp.TinyScale()
	loads := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
	for i := 0; i < b.N; i++ {
		rn := &sweep.Runner{Parallel: workers, RootSeed: s.Seed}
		if _, err := exp.Fig9(context.Background(), rn, s, loads); err != nil {
			b.Fatal(err)
		}
	}
	pointsSec := float64(len(loads)*b.N) / b.Elapsed().Seconds()
	b.ReportMetric(pointsSec, "points/s")
	recordBench(b, "sweep", name, map[string]any{
		"sweep": "fig9/tiny", "loads": loads,
		"note": "parallel = GOMAXPROCS workers, serial = 1 worker; no cache",
	}, map[string]float64{
		"ns_per_op":      float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		"points_per_sec": pointsSec,
		"workers":        float64(workers),
	})
}

// BenchmarkSweepCacheWarm measures replaying a fully memoized sweep —
// the steady-state cost of `-exp all` after the first run.
func BenchmarkSweepCacheWarm(b *testing.B) {
	s := exp.TinyScale()
	loads := []float64{0.25, 0.75}
	cache, err := sweep.OpenCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rn := &sweep.Runner{Parallel: 1, RootSeed: s.Seed, Cache: cache}
	if _, err := exp.Fig9(context.Background(), rn, s, loads); err != nil {
		b.Fatal(err) // cold fill
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig9(context.Background(), rn, s, loads); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- The scheduler subsystem: per-epoch planning throughput ----

// schedBenchCases is the matchings/s grid for the pluggable planners
// (DESIGN.md §10): every family at three fabric sizes, geometry matched
// to the grouped core grid (uplinks = n/ports, epoch = ports slots),
// each planned against two demand matrices (schedBenchDemands). The
// demand-aware families (pulse, negotiator) do per-epoch work that
// grows with live traffic; the static adapter and the round-robin
// rotor bound the cost of the interface itself.
var schedBenchCases = []struct {
	family string
	n      int
	ports  int
}{
	{"static", 64, 8}, {"static", 256, 16}, {"static", 1024, 32},
	{"rotorrr", 64, 8}, {"rotorrr", 256, 16}, {"rotorrr", 1024, 32},
	{"pulse", 64, 8}, {"pulse", 256, 16}, {"pulse", 1024, 32},
	{"negotiator", 64, 8}, {"negotiator", 256, 16}, {"negotiator", 1024, 32},
}

// schedBenchDemands names the demand matrices of the grid. Rows of the
// dense uniform matrix are named family/nN; the sparse hotspot rows
// add a /hotspot suffix.
var schedBenchDemands = []struct {
	suffix string
	gen    func(n int, r *rng.RNG) []int32
}{
	{"", uniformDemand},
	{"/hotspot", hotspotDemand},
}

// uniformDemand gives every pair 0..7 queued cells.
func uniformDemand(n int, r *rng.RNG) []int32 {
	demand := make([]int32, n*n)
	for i := range demand {
		demand[i] = int32(r.Intn(8))
	}
	return demand
}

// hotspotDemand is the shape the core hands its planners at
// sched_families' epoch boundaries: about 0.2% of pairs non-zero, and
// half of all queued cells bound for one destination (node 0). Half the
// non-zero pairs are random pairs with 1..16 cells; the rest are
// distinct sources sharing as many cells again towards node 0.
func hotspotDemand(n int, r *rng.RNG) []int32 {
	demand := make([]int32, n*n)
	pairs := max(2, n*n/500)
	var cold int32
	for k := 0; k < pairs/2; {
		src, dst := r.Intn(n), 1+r.Intn(n-1)
		if src == dst {
			continue
		}
		c := int32(1 + r.Intn(16))
		demand[src*n+dst] += c
		cold += c
		k++
	}
	h := int32(min(pairs/2, n-1))
	for k := int32(0); k < h; k++ {
		src := 1 + int(k)*(n-1)/int(h)
		demand[src*n] = cold / h
		if k < cold%h {
			demand[src*n]++
		}
	}
	return demand
}

// benchPlanner builds a fresh planner for one schedBenchCases row.
func benchPlanner(b *testing.B, family string, n, ports int) core.Planner {
	b.Helper()
	uplinks, slots := n/ports, ports
	switch family {
	case "static":
		g, err := schedule.NewGrouped(n, ports, 1)
		if err != nil {
			b.Fatal(err)
		}
		return sched.NewStatic(g)
	case "rotorrr":
		p, err := sched.NewRotorRR(n, uplinks, slots, 1)
		if err != nil {
			b.Fatal(err)
		}
		return p
	case "pulse":
		p, err := sched.NewPULSE(n, uplinks, slots, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		return p
	case "negotiator":
		p, err := sched.NewNegotiaToR(n, uplinks, slots, 1, 0)
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	b.Fatalf("unknown family %q", family)
	return nil
}

func BenchmarkSchedulerPlans(b *testing.B) {
	// Pure planning throughput: epochs planned per wall second for each
	// scheduler family, outside the simulator. Each case updates its row
	// of BENCH_sched.json. A matching is one fabric-wide slot assignment,
	// so matchings/s = plans/s × epoch slots; reconfig_slots_per_epoch is
	// the dark link-slots the family charged per Plan (static is 0 by
	// construction).
	config := map[string]any{
		"seed": 1, "reconfig_slots": 1,
		"demand": "family/nN: uniform random 0..7 cells per pair; family/nN/hotspot: ~0.2% of pairs non-zero, half the cells to node 0",
		"note":   "uplinks = n/ports, epoch = ports slots; matchings/s = plans/s x epoch slots",
	}
	for _, tc := range schedBenchCases {
		for _, dm := range schedBenchDemands {
			name := fmt.Sprintf("%s/n%d%s", tc.family, tc.n, dm.suffix)
			runCase(b, name, func(b *testing.B) {
				p := benchPlanner(b, tc.family, tc.n, tc.ports)
				demand := dm.gen(tc.n, rng.New(1))
				dst := make([]int32, p.SlotsPerEpoch()*tc.n*p.Uplinks())
				var reconfig int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reconfig += int64(p.Plan(int64(i), demand, dst))
				}
				b.StopTimer()
				plansSec := float64(b.N) / b.Elapsed().Seconds()
				b.ReportMetric(plansSec*float64(p.SlotsPerEpoch()), "matchings/s")
				recordBench(b, "sched", name, config, map[string]float64{
					"ns_per_plan":              float64(b.Elapsed().Nanoseconds()) / float64(b.N),
					"matchings_per_sec":        plansSec * float64(p.SlotsPerEpoch()),
					"reconfig_slots_per_epoch": float64(reconfig) / float64(b.N),
				})
			})
		}
	}
}
