// Distributed-sweep roles: -serve turns this process into a sweep
// coordinator that leases grid points to workers; -worker turns it into
// a worker that dials a coordinator, expands the same point set locally
// (from the spec the coordinator sends) and executes leased points.
// Both sides run identical experiment code at the same root seed, so
// the coordinator's output is byte-identical to a serial run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"

	"sirius/internal/cluster"
	"sirius/internal/exp"
	"sirius/internal/fault"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// Worker exit codes beyond the usual 0/1/2: the cluster-smoke CI job
// waits for a fault-planned worker to die with exitCrashed before
// starting the survivors.
const exitCrashed = 3

// clusterSpec is the opaque Welcome payload cmd/siriussim exchanges: it
// names the experiment and the knobs that shape its point grid, so a
// worker can re-expand exactly the coordinator's point set (the root
// seed travels in the Welcome itself). HashPoints on both sides guards
// against any drift this spec fails to capture.
type clusterSpec struct {
	Exp   string    `json:"exp"`
	Scale string    `json:"scale"`
	Loads []float64 `json:"loads"`
}

// sweepExps are the experiments that run on the sweep engine — the only
// ones the cluster roles can distribute. Values are the one-line
// descriptions -exp list prints.
var sweepExps = map[string]string{
	"fig9":        "Fig 9: short-flow p99 FCT and goodput vs load (Sirius vs ESN)",
	"fig10":       "Fig 10: queue bound Q sweep — FCT, goodput, peak queue/reorder",
	"fig11":       "Fig 11: FCT vs guardband at high load (slot scaled with it)",
	"fig12":       "Fig 12: goodput vs load for 1x/1.5x/2x uplink provisioning",
	"fig13":       "Fig 13: FCT and goodput vs mean flow size (cell-padding tax)",
	"failure":     "§4.5: node failures — degraded vs compacted schedule",
	"servers":     "§7: server-level metrics on the rack-based deployment",
	"ablation":    "ablations: pricing the design choices one knob at a time",
	"archcompare": "scheduler families (static/rotorrr/pulse/negotiator) vs ESN on one flow sample",
}

// runSweepExp dispatches one sweep-shaped experiment onto rn with the
// canonical grid parameters (the same values the runners table in run()
// uses — both go through here so coordinator, worker and serial runs
// can never disagree on the grid).
func runSweepExp(ctx context.Context, rn *sweep.Runner, name string, sc exp.Scale, loads []float64) (*exp.Table, error) {
	switch name {
	case "fig9":
		return exp.Fig9(ctx, rn, sc, loads)
	case "fig10":
		return exp.Fig10(ctx, rn, sc, []int{2, 4, 8, 16}, loads)
	case "fig11":
		return exp.Fig11(ctx, rn, sc, []float64{1, 5, 10, 20, 40})
	case "fig12":
		return exp.Fig12(ctx, rn, sc, []float64{1, 1.5, 2}, loads)
	case "fig13":
		return exp.Fig13(ctx, rn, sc, []float64{512, 1024, 2048, 4096, 16384, 32768, 65536, 100_000}, 0.75)
	case "failure":
		return exp.Failure(ctx, rn, sc, []int{0, 1, 4, 8})
	case "servers":
		return exp.ServerLevel(ctx, rn, sc, 8, loads)
	case "ablation":
		return exp.Ablation(ctx, rn, sc, 0.75)
	case "archcompare":
		return exp.ArchCompare(ctx, rn, sc, loads,
			[]float64{4096, 100e3}, []float64{0, 0.5})
	}
	return nil, fmt.Errorf("%q is not a sweep experiment (cluster roles take one of fig9 fig10 fig11 fig12 fig13 failure servers ablation archcompare)", name)
}

// expandSweep expands the named experiment's point set without executing
// anything, via the sweep runner's capture mode.
func expandSweep(ctx context.Context, name string, sc exp.Scale, loads []float64) (map[string][]sweep.Point, error) {
	points := make(map[string][]sweep.Point)
	capture := &sweep.Runner{RootSeed: sc.Seed, Capture: func(n string, pts []sweep.Point) {
		points[n] = pts
	}}
	if _, err := runSweepExp(ctx, capture, name, sc, loads); err != nil && !errors.Is(err, sweep.ErrCaptureOnly) {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("experiment %q produced no sweep points", name)
	}
	return points, nil
}

// scaleByName resolves a -scale name, for run() and for a worker reading
// its coordinator's clusterSpec alike.
func scaleByName(name string) (exp.Scale, error) {
	switch name {
	case "tiny":
		return exp.TinyScale(), nil
	case "small":
		return exp.SmallScale(), nil
	case "paper":
		return exp.PaperScale(), nil
	case "xl":
		return exp.XLScale(), nil
	}
	return exp.Scale{}, fmt.Errorf("unknown scale %q", name)
}

// workerOpts carries the flag subset the worker role consumes.
type workerOpts struct {
	addr      string // coordinator address
	name      string
	id        int
	planPath  string // fault plan scripting this worker's chaos
	useCache  bool
	cacheDir  string
	perfJSON  string
	telOut    string
	pprof     bool
	dialRetry time.Duration
}

// runWorkerRole is the -worker main: dial (with retry, so workers can
// start before the coordinator listens), expand the spec's point set,
// serve leases until Done. Exit codes: 0 done, 1 runtime error, 2 setup
// error, exitCrashed when a fault plan scripted this worker's death.
func runWorkerRole(ctx context.Context, o workerOpts) int {
	var plan *fault.Plan
	if o.planPath != "" {
		var err error
		if plan, err = fault.Load(o.planPath); err != nil {
			fmt.Fprintf(os.Stderr, "faultplan: %v\n", err)
			return 2
		}
	}
	rn := &sweep.Runner{Parallel: 1, PprofLabels: o.pprof}
	if o.useCache {
		if cache, err := sweep.OpenCache(o.cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "cache disabled: %v\n", err)
		} else {
			rn.Cache = cache
		}
	}
	cfg := cluster.WorkerConfig{
		Name:     o.name,
		ID:       o.id,
		Runner:   rn,
		Plan:     plan,
		Registry: telemetry.Default,
		Log:      os.Stderr,
	}

	var w *cluster.Worker
	deadline := time.Now().Add(o.dialRetry)
	for {
		var err error
		w, err = cluster.Dial(o.addr, cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "worker: %v\n", err)
			return 2
		}
		time.Sleep(200 * time.Millisecond)
	}

	var spec clusterSpec
	if err := json.Unmarshal(w.Spec(), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "worker: bad spec from coordinator: %v\n", err)
		w.Close()
		return 2
	}
	sc, err := scaleByName(spec.Scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		w.Close()
		return 2
	}
	sc.Seed = w.RootSeed()
	points, err := expandSweep(ctx, spec.Exp, sc, spec.Loads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "worker: expanding %s: %v\n", spec.Exp, err)
		w.Close()
		return 2
	}

	started := time.Now()
	runErr := w.Run(ctx, points)
	wall := time.Since(started)

	if o.perfJSON != "" {
		rec := struct {
			Exp          string  `json:"exp"`
			Role         string  `json:"role"`
			WallNS       int64   `json:"wall_ns"`
			Points       int64   `json:"points"`
			PointsPerSec float64 `json:"points_per_second"`
			Err          string  `json:"error,omitempty"`
		}{Exp: spec.Exp, Role: "worker", WallNS: wall.Nanoseconds(), Points: int64(w.Completed)}
		if wall > 0 {
			rec.PointsPerSec = float64(w.Completed) / wall.Seconds()
		}
		if runErr != nil {
			rec.Err = runErr.Error()
		}
		if err := telemetry.WriteFileAtomic(o.perfJSON, indentJSON([]any{rec})); err != nil {
			fmt.Fprintf(os.Stderr, "perfjson: %v\n", err)
		}
	}
	if o.telOut != "" {
		if err := telemetry.WriteFileAtomic(o.telOut, telemetry.Default.Snapshot().WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry-out: %v\n", err)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", runErr)
		if errors.Is(runErr, cluster.ErrCrashed) {
			return exitCrashed
		}
		return 1
	}
	return 0
}
