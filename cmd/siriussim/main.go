// Command siriussim regenerates the paper's tables and figures.
//
// Usage:
//
//	siriussim -exp fig9 [-scale small|paper|tiny] [-loads 0.1,0.5,1.0]
//	siriussim -exp all [-parallel N] [-seed S] [-cache=false]
//
// Experiments: fig2a fig6a fig6b tuning lasers fig8a fig8b fig8c fig8d
// timesync budget burst proto livefailure lifecycle fig9 fig10 fig11
// fig12 fig13 failure servers ablation archcompare custom (with -trace).
// -exp list enumerates them all with one-line descriptions.
//
// The sweep-shaped experiments (fig9–fig13, failure, servers, ablation)
// run on the internal/sweep engine: grid points execute on a bounded
// worker pool (-parallel, default GOMAXPROCS) with deterministic
// per-point RNG substreams, so -parallel N output is byte-identical to
// -parallel 1 for the same -seed. Completed points are memoized under
// -cachedir (default results/cache); re-runs replay them unless
// -cache=false. Every invocation writes a machine-readable run manifest
// (-manifest, default results/run_manifest.json) with per-point config
// hashes and wall times — including on SIGINT, which cancels in-flight
// workers and flushes whatever completed.
//
// -exp all runs every experiment even if some fail: per-experiment
// errors go to stderr and the exit status is non-zero iff any failed.
//
// Observability: -telemetry-out FILE dumps the process's telemetry
// registry (every counter, gauge and histogram the simulators
// accumulated) as a JSON snapshot on exit; -trace-events FILE writes a
// Chrome trace_event timeline with one span per experiment and one span
// per sweep point (plus cache-hit instants), loadable in Perfetto;
// -perfjson FILE writes the per-experiment perf summaries as JSON
// records (the -perf stderr text is unchanged); each record's
// peak_rss_mb is the process's resident-set high-water mark so far
// (getrusage ru_maxrss) when the experiment ends, so under -exp all it
// covers every experiment before it too. -telemetry ADDR serves
// /metrics and /healthz live during the run.
//
// Distributed sweeps (DESIGN.md §9): -serve ADDR runs a sweep
// experiment as a cluster coordinator, leasing grid points to workers;
// -worker ADDR runs this process as a worker against that coordinator
// (with -worker-name, -worker-id, and -faultplan for scripted chaos).
// The coordinator's output is byte-identical to a serial run at the
// same seed; crashed or stalled workers lose their leases, which other
// workers reclaim.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/core"
	"sirius/internal/dc"
	"sirius/internal/exp"
	"sirius/internal/fluid"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("siriussim", flag.ExitOnError)
	var (
		name     = fs.String("exp", "all", "experiment id (see package doc; \"all\" runs everything)")
		scale    = fs.String("scale", "small", "network-simulation scale: tiny, small, paper, xl")
		loads    = fs.String("loads", "0.10,0.25,0.50,0.75,1.00", "comma-separated load points")
		epochs   = fs.Int("epochs", 50_000, "epochs for the timesync experiment")
		format   = fs.String("format", "text", "output format: text, csv, json")
		trace    = fs.String("trace", "", "flow-trace CSV for -exp custom (arrival_ns,src,dst,bytes)")
		ports    = fs.Int("ports", 8, "grating ports for -exp custom")
		parallel = fs.Int("parallel", 0, "sweep worker count (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "root seed for the sweeps (0 = the scale's default seed)")
		useCache = fs.Bool("cache", true, "memoize completed sweep points on disk")
		cacheDir = fs.String("cachedir", "results/cache", "sweep point cache directory")
		manifest = fs.String("manifest", "results/run_manifest.json", "run manifest path (empty disables)")
		progress = fs.Bool("progress", false, "stream per-point sweep progress and ETA to stderr")

		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		exectrace   = fs.String("exectrace", "", "write a runtime execution trace to this file")
		pprofLabels = fs.Bool("pproflabels", false, "label sweep-point goroutines (sweep=<name>, point=<key>) in CPU profiles")
		perf        = fs.Bool("perf", true, "print a per-experiment wall-time and cells/sec summary to stderr")

		perfJSON = fs.String("perfjson", "", "write the per-experiment perf summaries as JSON to this file")
		telOut   = fs.String("telemetry-out", "", "write a JSON snapshot of the telemetry registry to this file on exit")
		traceOut = fs.String("trace-events", "", "write a Chrome trace_event timeline (experiment + sweep-point spans) to this file")

		serveAddr  = fs.String("serve", "", "run as sweep coordinator: listen for workers on this address (requires a sweep -exp)")
		workerAddr = fs.String("worker", "", "run as sweep worker: lease points from the coordinator at this address")
		workerName = fs.String("worker-name", "", "worker name, unique per coordinator (default worker-<worker-id>)")
		workerID   = fs.Int("worker-id", 0, "worker id in fault-plan node space")
		planPath   = fs.String("faultplan", "", "fault plan JSON (internal/fault format) scripting this worker's crash/stall chaos")
		leaseTTL   = fs.Duration("lease-ttl", 10*time.Second, "coordinator lease TTL: heartbeats extend it, expiry reclaims the point")
		telAddr    = fs.String("telemetry", "", "serve live /metrics and /healthz on this address while running")
	)
	fs.Parse(args)

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	if *exectrace != "" {
		f, err := os.Create(*exectrace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "exectrace: %v\n", err)
			return 2
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			fmt.Fprintf(os.Stderr, "exectrace: %v\n", err)
			return 2
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	sc, err := scaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	loadList, err := parseFloats(*loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bad -loads: %v\n", err)
		return 2
	}

	// SIGINT/SIGTERM cancel the sweep context: in-flight simulation
	// workers abort at their next epoch boundary, completed tables have
	// already been printed, and the manifest below is still flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Live observability endpoint (any role): /metrics serves the
	// telemetry registry, /healthz the health tracker — which the
	// coordinator below feeds worker-liveness conditions.
	health := telemetry.NewHealth(0)
	if *telAddr != "" {
		telSrv, err := telemetry.NewServer(*telAddr, telemetry.Default, health)
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetry: %v\n", err)
			return 2
		}
		defer telSrv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: serving /metrics and /healthz on %s\n", telSrv.Addr())
	}

	if *workerAddr != "" {
		if *serveAddr != "" {
			fmt.Fprintln(os.Stderr, "-serve and -worker are mutually exclusive")
			return 2
		}
		return runWorkerRole(ctx, workerOpts{
			addr:      *workerAddr,
			name:      *workerName,
			id:        *workerID,
			planPath:  *planPath,
			useCache:  *useCache,
			cacheDir:  *cacheDir,
			perfJSON:  *perfJSON,
			telOut:    *telOut,
			pprof:     *pprofLabels,
			dialRetry: 15 * time.Second,
		})
	}

	var tracer *telemetry.Tracer // nil disables tracing (nil-safe)
	if *traceOut != "" {
		tracer = telemetry.NewTracer(0)
	}

	runner := &sweep.Runner{Parallel: *parallel, RootSeed: sc.Seed, PprofLabels: *pprofLabels, Tracer: tracer}
	if *progress {
		runner.Progress = os.Stderr
	}
	if *useCache {
		cache, err := sweep.OpenCache(*cacheDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cache disabled: %v\n", err)
		} else {
			runner.Cache = cache
		}
	}

	// Coordinator role: expand the experiment's point set, open the lease
	// server and plug it into the runner as its executor. The experiment
	// then runs exactly as usual — every point the local cache misses is
	// leased to a worker instead of computed here.
	var coord *cluster.Coordinator
	if *serveAddr != "" {
		if _, ok := sweepExps[*name]; !ok {
			fmt.Fprintf(os.Stderr, "-serve requires a single sweep experiment, not %q\n", *name)
			return 2
		}
		points, err := expandSweep(ctx, *name, sc, loadList)
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			return 2
		}
		spec, err := json.Marshal(clusterSpec{Exp: *name, Scale: *scale, Loads: loadList})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			return 2
		}
		coord, err = cluster.NewCoordinator(*serveAddr, cluster.CoordinatorConfig{
			Spec:     spec,
			RootSeed: sc.Seed,
			SpecHash: cluster.HashPoints(sc.Seed, points),
			LeaseTTL: *leaseTTL,
			Registry: telemetry.Default,
			Health:   health,
			Log:      os.Stderr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			return 2
		}
		defer coord.Close()
		runner.Executor = coord
		fmt.Fprintf(os.Stderr, "serve: coordinating %s on %s (%d point(s), lease TTL %s)\n",
			*name, coord.Addr(), len(points[*name]), *leaseTTL)
	}

	// experiment pairs a runner with the one-line description -exp list
	// prints; the registry is the single place experiments are declared.
	type experiment struct {
		desc string
		run  func() (*exp.Table, error)
	}
	runners := map[string]experiment{
		"fig2a":    {"Fig 2a: scale tax — network power per bisection bandwidth", func() (*exp.Table, error) { return exp.Fig2a(), nil }},
		"fig6a":    {"Fig 6a: Sirius/ESN power vs tunable-to-fixed laser power ratio", func() (*exp.Table, error) { return exp.Fig6a(), nil }},
		"fig6b":    {"Fig 6b: Sirius/ESN cost vs grating cost fraction", func() (*exp.Table, error) { return exp.Fig6b(), nil }},
		"tuning":   {"§3.2/§6: laser tuning latency", func() (*exp.Table, error) { return exp.Tuning(), nil }},
		"lasers":   {"§3.3: disaggregated tunable laser designs", func() (*exp.Table, error) { return exp.LaserDesigns(), nil }},
		"fig8a":    {"Fig 8a: CDF of SOA rise and fall times", func() (*exp.Table, error) { return exp.Fig8a(), nil }},
		"fig8b":    {"Fig 8b: switching between adjacent and distant wavelengths", func() (*exp.Table, error) { return exp.Fig8b(), nil }},
		"fig8c":    {"Fig 8c: burst waveform over consecutive cell slots", func() (*exp.Table, error) { return exp.Fig8c(), nil }},
		"fig8d":    {"Fig 8d: BER vs received power for four wavelengths", func() (*exp.Table, error) { return exp.Fig8d(), nil }},
		"timesync": {"§6: time-synchronization accuracy", func() (*exp.Table, error) { return exp.Timesync(*epochs), nil }},
		"budget":   {"§4.5: link budget and laser sharing", func() (*exp.Table, error) { return exp.LinkBudget(), nil }},
		"burst":    {"§2.2: packet-size mixture and the 10 ns guardband target", func() (*exp.Table, error) { return exp.Burst(), nil }},
		"proto":    {"§6: prototype emulation — cyclic schedule + PRBS over TCP AWGR", func() (*exp.Table, error) { return exp.Prototype(4, 200) }},
		"livefailure": {"§4.5 live: node kill on the wire testbed — detect, flood, compact", func() (*exp.Table, error) {
			return exp.LiveFailure(4, 40, 2, 10, *seed)
		}},
		"lifecycle": {"lifecycle soak: expansion, drain/re-add, crash and load shifts", func() (*exp.Table, error) { return exp.Lifecycle(*seed) }},
		"custom": {"flow-trace replay from -trace CSV (arrival_ns,src,dst,bytes)", func() (*exp.Table, error) {
			if *trace == "" {
				return nil, fmt.Errorf("-exp custom needs -trace <file.csv>")
			}
			return exp.FromTraceFile(ctx, *trace, *ports, 1)
		}},
	}
	// The sweep-shaped experiments all dispatch through runSweepExp — the
	// single source of truth for each experiment's grid, shared with the
	// cluster worker role so distributed point expansion can never drift
	// from what runs here.
	for id, desc := range sweepExps {
		id := id
		runners[id] = experiment{desc, func() (*exp.Table, error) { return runSweepExp(ctx, runner, id, sc, loadList) }}
	}

	order := []string{"fig2a", "fig6a", "fig6b", "tuning", "lasers", "fig8a", "fig8b",
		"fig8c", "fig8d", "timesync", "budget", "burst", "proto", "livefailure", "lifecycle",
		"fig9", "fig10", "fig11", "fig12", "fig13", "failure", "servers", "ablation",
		"archcompare"}

	// -exp list: enumerate the registry (run order first, then the
	// trace-driven extra) and exit without running anything.
	if *name == "list" {
		for _, id := range append(append([]string{}, order...), "custom") {
			fmt.Printf("%-12s %s\n", id, runners[id].desc)
		}
		return 0
	}

	started := time.Now()
	var failures []string
	fail := func(id string, err error) {
		failures = append(failures, fmt.Sprintf("%s: %v", id, err))
		fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
	}

	// perfRecord mirrors one experiment's perf stderr line for -perfjson.
	// Role distinguishes cluster records: "coordinator" (with Points and
	// PointsPerSec for the distributed sweep) vs the usual per-experiment
	// records, which leave it empty.
	type perfRecord struct {
		Exp          string  `json:"exp"`
		Role         string  `json:"role,omitempty"`
		Points       int64   `json:"points,omitempty"`
		PointsPerSec float64 `json:"points_per_second,omitempty"`

		WallNS      int64   `json:"wall_ns"`
		Cells       int64   `json:"cells,omitempty"`
		Slots       int64   `json:"slots,omitempty"`
		CellsPerSec float64 `json:"cells_per_sec,omitempty"`
		Flows       int64   `json:"flows,omitempty"`
		Events      int64   `json:"events,omitempty"`
		FlowsPerSec float64 `json:"flows_per_sec,omitempty"`
		DCFlows     int64   `json:"dc_flows,omitempty"`
		Racks       int64   `json:"racks,omitempty"`
		PeakRSSMB   float64 `json:"peak_rss_mb"`
		Err         string  `json:"error,omitempty"`
	}
	var perfRecords []perfRecord

	// runOne executes one experiment and prints its table immediately, so
	// an interrupted or partially failing -exp all still emits everything
	// that completed.
	runOne := func(id string) {
		r, ok := runners[id]
		if !ok {
			fail(id, fmt.Errorf("unknown experiment"))
			return
		}
		cells0, slots0 := core.Counters()
		flows0, events0 := fluid.Counters()
		dcFlows0, racks0 := dc.Counters()
		t0 := time.Now()
		tab, err := r.run()
		tracer.Span(id, "experiment", 0, t0, nil)
		if *perf || *perfJSON != "" {
			wall := time.Since(t0)
			cells, slots := core.Counters()
			flows, events := fluid.Counters()
			dcFlows, racks := dc.Counters()
			rec := perfRecord{Exp: id, WallNS: wall.Nanoseconds(), PeakRSSMB: peakRSSMB()}
			if err != nil {
				rec.Err = err.Error()
			}
			printed := false
			if d := cells - cells0; d > 0 && wall > 0 {
				rec.Cells, rec.Slots = d, slots-slots0
				rec.CellsPerSec = float64(d) / wall.Seconds()
				if *perf {
					fmt.Fprintf(os.Stderr, "perf: %-9s %10v wall  %12d cells  %10d slots  %8.2fM cells/s\n",
						id, wall.Round(time.Millisecond), d, slots-slots0,
						float64(d)/wall.Seconds()/1e6)
				}
				printed = true
			}
			// Flow-level work (the fluid ESN baselines and the dc
			// composition's intra-rack tier) is reported in its own
			// units: flows and solver events per second.
			if d := flows - flows0; d > 0 && wall > 0 {
				rec.Flows, rec.Events = d, events-events0
				rec.FlowsPerSec = float64(d) / wall.Seconds()
				if *perf {
					fmt.Fprintf(os.Stderr, "perf: %-9s %10v wall  %12d flows  %10d events  %8.2fk flows/s\n",
						id, wall.Round(time.Millisecond), d, events-events0,
						float64(d)/wall.Seconds()/1e3)
				}
				printed = true
			}
			if d := dcFlows - dcFlows0; d > 0 && wall > 0 {
				rec.DCFlows, rec.Racks = d, racks-racks0
				if *perf {
					fmt.Fprintf(os.Stderr, "perf: %-9s %10v wall  %12d dcflows %9d racks  %8.2fk dcflows/s\n",
						id, wall.Round(time.Millisecond), d, racks-racks0,
						float64(d)/wall.Seconds()/1e3)
				}
				printed = true
			}
			if !printed && *perf {
				fmt.Fprintf(os.Stderr, "perf: %-9s %10v wall\n", id, wall.Round(time.Millisecond))
			}
			perfRecords = append(perfRecords, rec)
		}
		if err != nil {
			fail(id, err)
			return
		}
		switch *format {
		case "text":
			tab.Fprint(os.Stdout)
		case "csv":
			err = tab.CSV(os.Stdout)
		case "json":
			err = tab.JSON(os.Stdout)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fail(id, err)
		}
	}

	if *name == "all" {
		for _, id := range order {
			if ctx.Err() != nil {
				fail(id, ctx.Err()) // interrupted: record the rest as skipped
				continue
			}
			runOne(id)
		}
	} else if _, ok := runners[*name]; !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *name)
		return 2
	} else {
		runOne(*name)
	}

	// Coordinator wrap-up: tell workers the run is over, give them a
	// moment to drain cleanly, and record the distributed throughput.
	sweeps := runner.Manifests()
	if coord != nil {
		coord.Finish()
		drainUntil := time.Now().Add(5 * time.Second)
		for coord.Stats().WorkersLive > 0 && time.Now().Before(drainUntil) {
			time.Sleep(20 * time.Millisecond)
		}
		st := coord.Stats()
		wall := time.Since(started)
		if *perf {
			fmt.Fprintf(os.Stderr, "perf: %-9s %10v wall  %12d points  %8.2f points/s  (%d reclaimed, %d workers)\n",
				"serve", wall.Round(time.Millisecond), st.Completed,
				float64(st.Completed)/wall.Seconds(), st.Reclaimed, st.Registered)
		}
		if *perfJSON != "" {
			rec := perfRecord{Exp: *name, Role: "coordinator", WallNS: wall.Nanoseconds(),
				Points: st.Completed, PeakRSSMB: peakRSSMB()}
			if wall > 0 {
				rec.PointsPerSec = float64(st.Completed) / wall.Seconds()
			}
			perfRecords = append(perfRecords, rec)
		}
		// Attach per-worker provenance (who computed what, on which
		// build) to the manifest's sweeps.
		for i := range sweeps {
			sweeps[i].Workers = coord.Workers(sweeps[i].Points)
		}
	}

	// Flush the run manifest — also on failure or SIGINT, so every point
	// that did complete is accounted (and cached for the next run).
	if *manifest != "" {
		m := &sweep.RunManifest{
			Command:    "siriussim " + strings.Join(args, " "),
			StartedAt:  started,
			FinishedAt: time.Now(),
			WallNS:     time.Since(started).Nanoseconds(),
			Parallel:   *parallel,
			RootSeed:   sc.Seed,
			Env:        sweep.CaptureEnv(),
			Sweeps:     sweeps,
			Errors:     failures,
		}
		if runner.Cache != nil {
			m.Cache = runner.Cache.Dir()
		}
		if err := telemetry.WriteFileAtomic(*manifest, m.Write); err != nil {
			fmt.Fprintf(os.Stderr, "manifest: %v\n", err)
		}
	}

	// Observability artifacts: best-effort, flushed even on failure so an
	// interrupted run still leaves its timeline and counters behind.
	if *perfJSON != "" {
		if err := telemetry.WriteFileAtomic(*perfJSON, indentJSON(perfRecords)); err != nil {
			fmt.Fprintf(os.Stderr, "perfjson: %v\n", err)
		}
	}
	if *telOut != "" {
		if err := telemetry.WriteFileAtomic(*telOut, telemetry.Default.Snapshot().WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry-out: %v\n", err)
		}
	}
	if tracer != nil {
		if err := telemetry.WriteFileAtomic(*traceOut, tracer.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "trace-events: %v\n", err)
		}
	}

	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", len(failures))
		if errors.Is(ctx.Err(), context.Canceled) {
			fmt.Fprintln(os.Stderr, "interrupted: completed tables and the manifest were flushed")
		}
		return 1
	}
	return 0
}

// indentJSON is an encoder for telemetry.WriteFileAtomic that writes v as
// indented JSON.
func indentJSON(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	}
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no load points")
	}
	return out, nil
}

// peakRSSMB is the process's resident-set high-water mark so far, in MB
// (10^6 bytes): getrusage's ru_maxrss, which Linux reports in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}
