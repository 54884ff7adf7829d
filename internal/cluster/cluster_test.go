package cluster

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sirius/internal/fault"
	"sirius/internal/rng"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// testPoints builds a deterministic point set: each point's rows are a
// pure function of (key, substream seed), so any worker — or a serial
// run — computes identical rows. delay, when positive, makes each
// point's execution take that long (cancellable), for lease-expiry
// choreography.
func testPoints(n int, delay time.Duration) []sweep.Point {
	pts := make([]sweep.Point, n)
	for i := range pts {
		key := fmt.Sprintf("load=%02d", i)
		pts[i] = sweep.Point{
			Key: key,
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				if delay > 0 {
					select {
					case <-time.After(delay):
					case <-ctx.Done():
						return nil, ctx.Err()
					}
				}
				r := rng.New(seed)
				return [][]string{{key, fmt.Sprint(r.Uint64()), fmt.Sprint(r.Uint64())}}, nil
			},
		}
	}
	return pts
}

// serialRun executes the point set on a plain single-process runner and
// returns its rows and manifest: the ground truth every cluster test
// compares against.
func serialRun(t *testing.T, name string, seed uint64, n int) ([][][]string, sweep.SweepManifest) {
	t.Helper()
	r := &sweep.Runner{Parallel: 1, RootSeed: seed}
	rows, err := r.Run(context.Background(), name, testPoints(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	return rows, r.Manifests()[0]
}

// startWorker dials and runs a worker against its own local expansion of
// the point set; the returned channel delivers Run's error.
func startWorker(ctx context.Context, t *testing.T, addr string, cfg WorkerConfig, pts map[string][]sweep.Point) <-chan error {
	t.Helper()
	errc := make(chan error, 1)
	go func() {
		w, err := Dial(addr, cfg)
		if err != nil {
			errc <- err
			return
		}
		errc <- w.Run(ctx, pts)
	}()
	return errc
}

// waitStats polls the coordinator until pred holds or the deadline
// passes.
func waitStats(t *testing.T, c *Coordinator, what string, pred func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if pred(c.Stats()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; stats %+v", what, c.Stats())
}

// TestClusterMatchesSerial is the core acceptance test: a coordinator
// fanning a sweep out to three workers produces rows and a manifest
// identical (canonical form) to a serial run at the same seed, and
// Workers credits every point to a worker that kept its RunEnv.
func TestClusterMatchesSerial(t *testing.T) {
	const n, seed = 12, uint64(777)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wantRows, wantMan := serialRun(t, "fig9", seed, n)

	reg := telemetry.NewRegistry()
	pmap := map[string][]sweep.Point{"fig9": testPoints(n, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed,
		SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 500 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	var workers []<-chan error
	for i := 0; i < 3; i++ {
		workers = append(workers, startWorker(ctx, t, coord.Addr(), WorkerConfig{
			Name:     fmt.Sprintf("w%d", i),
			ID:       i,
			Runner:   &sweep.Runner{},
			Registry: reg,
		}, map[string][]sweep.Point{"fig9": testPoints(n, 0)}))
	}

	rc := &sweep.Runner{RootSeed: seed, Executor: coord}
	rows, err := rc.Run(ctx, "fig9", testPoints(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	for i, ec := range workers {
		if err := <-ec; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("cluster rows differ from serial rows")
	}
	man := rc.Manifests()[0]
	if got := man.Canonical(); !reflect.DeepEqual(got, wantMan.Canonical()) {
		t.Fatalf("coordinator manifest diverges from serial\ngot:  %+v\nwant: %+v", got, wantMan.Canonical())
	}
	ws := coord.Workers(man.Points)
	total := 0
	for i, w := range ws {
		if w.Env == nil || w.Env.GoVersion == "" {
			t.Errorf("worker %s lost its RunEnv", w.Worker)
		}
		if i > 0 && w.Worker <= ws[i-1].Worker {
			t.Errorf("workers not sorted by name: %s after %s", w.Worker, ws[i-1].Worker)
		}
		total += w.Points
	}
	if total != n {
		t.Errorf("worker provenance accounts for %d/%d points", total, n)
	}
	st := coord.Stats()
	if st.Completed != n || st.Granted != n || st.Reclaimed != 0 || st.Registered != 3 {
		t.Errorf("stats %+v, want completed=granted=%d reclaimed=0 registered=3", st, n)
	}
}

// TestWorkerCrashReclaim kills one worker with a fault plan on its first
// lease and checks the reclaim machinery end to end: the lease is
// reclaimed (observable in telemetry), surviving workers complete every
// point, output still matches serial, and /healthz degrades while the
// crashed worker's point is outstanding and recovers after.
func TestWorkerCrashReclaim(t *testing.T) {
	const n, seed = 8, uint64(4242)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wantRows, wantMan := serialRun(t, "fig9", seed, n)

	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth(0)
	pmap := map[string][]sweep.Point{"fig9": testPoints(n, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed,
		SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 500 * time.Millisecond,
		Registry: reg,
		Health:   health,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The doomed worker registers first and crashes on its first lease
	// (fault-plan epoch 0), guaranteeing at least one reclaim.
	crashed := startWorker(ctx, t, coord.Addr(), WorkerConfig{
		Name:     "doomed",
		ID:       0,
		Runner:   &sweep.Runner{},
		Plan:     fault.KillPlan(0, 0, seed),
		Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})

	rc := &sweep.Runner{RootSeed: seed, Executor: coord}
	runErr := make(chan error, 1)
	var rows [][][]string
	go func() {
		var err error
		rows, err = rc.Run(ctx, "fig9", testPoints(n, 0))
		runErr <- err
	}()

	if err := <-crashed; !errors.Is(err, ErrCrashed) {
		t.Fatalf("doomed worker exited with %v, want ErrCrashed", err)
	}
	waitStats(t, coord, "crash reclaim", func(s Stats) bool { return s.Reclaimed >= 1 })

	// Only now start the survivors: the crashed lease must be re-granted
	// to one of them.
	var survivors []<-chan error
	for i := 1; i <= 2; i++ {
		survivors = append(survivors, startWorker(ctx, t, coord.Addr(), WorkerConfig{
			Name:     fmt.Sprintf("w%d", i),
			ID:       i,
			Runner:   &sweep.Runner{},
			Registry: reg,
		}, map[string][]sweep.Point{"fig9": testPoints(n, 0)}))
	}
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	for i, ec := range survivors {
		if err := <-ec; err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}

	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("rows after crash+reclaim differ from serial rows")
	}
	if got := rc.Manifests()[0].Canonical(); !reflect.DeepEqual(got, wantMan.Canonical()) {
		t.Fatal("manifest after crash+reclaim diverges from serial")
	}
	st := coord.Stats()
	if st.Reclaimed < 1 {
		t.Errorf("reclaimed = %d, want >= 1", st.Reclaimed)
	}
	if st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
	if !health.SawFlap() {
		t.Error("health never degraded despite a crashed worker holding a lease")
	}
	if !health.Healthy() {
		t.Errorf("health still degraded after recovery: %+v", health.Status())
	}
	if reg.Snapshot().CounterTotal("sirius_cluster_leases_reclaimed_total") < 1 {
		t.Error("reclaim not visible in telemetry registry")
	}
}

// TestStallDuplicateResult scripts a stall fault: the worker takes a
// lease, goes silent (no heartbeats) and delivers the result only after
// the lease TTL has long expired. The coordinator must expire and
// reclaim the lease, let another worker complete the point, count the
// late delivery as a duplicate, and still produce serial-identical rows.
func TestStallDuplicateResult(t *testing.T) {
	const n, seed = 6, uint64(99)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wantRows, _ := serialRun(t, "fig9", seed, n)

	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth(0)
	pmap := map[string][]sweep.Point{"fig9": testPoints(n, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed,
		SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 100 * time.Millisecond,
		Registry: reg,
		Health:   health,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Stall the first lease: heartbeats stop and the result is delayed
	// 1.5s — far past the 100ms TTL.
	stallPlan := &fault.Plan{Seed: seed, Events: []fault.Event{
		{Kind: fault.Stall, Src: 0, Epoch: 0, Until: 1, DelayMicros: 1_500_000},
	}}
	stalled := startWorker(ctx, t, coord.Addr(), WorkerConfig{
		Name:     "sleeper",
		ID:       0,
		Runner:   &sweep.Runner{},
		Plan:     stallPlan,
		Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})

	rc := &sweep.Runner{RootSeed: seed, Executor: coord}
	runErr := make(chan error, 1)
	var rows [][][]string
	go func() {
		var err error
		rows, err = rc.Run(ctx, "fig9", testPoints(n, 0))
		runErr <- err
	}()
	// Wait for the sleeper to take its lease, then bring up the healthy
	// worker that will absorb the reclaimed point.
	waitStats(t, coord, "first lease", func(s Stats) bool { return s.Granted >= 1 })
	healthy := startWorker(ctx, t, coord.Addr(), WorkerConfig{
		Name:     "healthy",
		ID:       1,
		Runner:   &sweep.Runner{},
		Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	if err := <-stalled; err != nil {
		t.Fatalf("stalled worker: %v", err)
	}

	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("rows after stall differ from serial rows")
	}
	st := coord.Stats()
	if st.Expired < 1 {
		t.Errorf("expired = %d, want >= 1 (lease TTL should have fired)", st.Expired)
	}
	if st.Reclaimed < 1 {
		t.Errorf("reclaimed = %d, want >= 1", st.Reclaimed)
	}
	waitStats(t, coord, "duplicate result", func(s Stats) bool { return s.Duplicates >= 1 })
	if !health.SawFlap() {
		t.Error("health never degraded despite an expired lease")
	}
}

// TestZeroProgressHardCap pins the MaxLease guard: a worker that
// heartbeats diligently but never finishes its point loses the lease at
// the hard cap, and the sweep still completes via another worker.
func TestZeroProgressHardCap(t *testing.T) {
	const n, seed = 4, uint64(31337)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	wantRows, _ := serialRun(t, "fig9", seed, n)

	reg := telemetry.NewRegistry()
	pmap := map[string][]sweep.Point{"fig9": testPoints(n, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed,
		SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 100 * time.Millisecond,
		MaxLease: 300 * time.Millisecond,
		Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// The "stuck" worker's local points take 5s each — it heartbeats the
	// whole time (no fault plan), so only the hard cap can reclaim. Its
	// point closures still produce correct rows if ever allowed to
	// finish; the test cancels them via ctx at the end instead.
	stuckCtx, stopStuck := context.WithCancel(ctx)
	defer stopStuck()
	stuck := startWorker(stuckCtx, t, coord.Addr(), WorkerConfig{
		Name:     "stuck",
		ID:       0,
		Runner:   &sweep.Runner{},
		Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 5*time.Second)})

	rc := &sweep.Runner{RootSeed: seed, Executor: coord}
	runErr := make(chan error, 1)
	var rows [][][]string
	go func() {
		var err error
		rows, err = rc.Run(ctx, "fig9", testPoints(n, 0))
		runErr <- err
	}()
	waitStats(t, coord, "first lease", func(s Stats) bool { return s.Granted >= 1 })
	healthy := startWorker(ctx, t, coord.Addr(), WorkerConfig{
		Name:     "healthy",
		ID:       1,
		Runner:   &sweep.Runner{},
		Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})

	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	if err := <-healthy; err != nil {
		t.Fatalf("healthy worker: %v", err)
	}
	// The stuck worker is still sleeping inside its first point; cancel
	// it and accept either a context error or a clean Done (if its sleep
	// happened to end first).
	stopStuck()
	if err := <-stuck; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("stuck worker: %v", err)
	}

	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("rows after hard-cap reclaim differ from serial rows")
	}
	st := coord.Stats()
	if st.Expired < 1 {
		t.Errorf("expired = %d, want >= 1 (hard cap should have fired despite heartbeats)", st.Expired)
	}
	if st.Completed != n {
		t.Errorf("completed = %d, want %d", st.Completed, n)
	}
}

// TestSharedCacheResultStore pins the cache-as-result-store property in
// both directions: a worker sharing the serial run's cache directory
// replays every point (merged manifest shows n cache hits), and a
// coordinator with a warm local cache never leases at all.
func TestSharedCacheResultStore(t *testing.T) {
	const n, seed = 5, uint64(2020)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir := t.TempDir()

	// Warm the cache with a serial run.
	cache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	sr := &sweep.Runner{Parallel: 1, RootSeed: seed, Cache: cache}
	wantRows, err := sr.Run(ctx, "fig9", testPoints(n, 0))
	if err != nil {
		t.Fatal(err)
	}

	// Direction 1: cold coordinator, worker with the warm cache — every
	// leased point replays from disk.
	reg := telemetry.NewRegistry()
	pmap := map[string][]sweep.Point{"fig9": testPoints(n, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed, SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 500 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	wcache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	wec := startWorker(ctx, t, coord.Addr(), WorkerConfig{
		Name: "warm", ID: 0, Runner: &sweep.Runner{Cache: wcache}, Registry: reg,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})
	rc := &sweep.Runner{RootSeed: seed, Executor: coord}
	rows, err := rc.Run(ctx, "fig9", testPoints(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	coord.Finish()
	if err := <-wec; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, wantRows) {
		t.Fatal("worker cache replay rows differ from serial rows")
	}
	man := rc.Manifests()[0]
	if man.CacheHit != n {
		t.Errorf("worker-side cache hits = %d, want %d", man.CacheHit, n)
	}
	if ws := coord.Workers(man.Points); len(ws) != 1 || ws[0].Worker != "warm" ||
		ws[0].Points != n || ws[0].CacheHits != n || ws[0].Env == nil {
		t.Errorf("workers = %+v, want warm credited with %d points, all cache hits, with its RunEnv", ws, n)
	}
	coord.Close()

	// Direction 2: coordinator runner holding the warm cache serves every
	// point locally — zero leases cross the wire.
	reg2 := telemetry.NewRegistry()
	coord2, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed, SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 500 * time.Millisecond, Registry: reg2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	ccache, err := sweep.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	idle := startWorker(ctx, t, coord2.Addr(), WorkerConfig{
		Name: "idle", ID: 0, Runner: &sweep.Runner{}, Registry: reg2,
	}, map[string][]sweep.Point{"fig9": testPoints(n, 0)})
	rc2 := &sweep.Runner{RootSeed: seed, Executor: coord2, Cache: ccache}
	rows2, err := rc2.Run(ctx, "fig9", testPoints(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	coord2.Finish()
	if err := <-idle; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows2, wantRows) {
		t.Fatal("coordinator cache replay rows differ from serial rows")
	}
	if st := coord2.Stats(); st.Granted != 0 {
		t.Errorf("granted = %d leases despite a fully warm coordinator cache", st.Granted)
	}
	man = rc2.Manifests()[0]
	if man.CacheHit != n {
		t.Errorf("coordinator cache hits = %d, want %d", man.CacheHit, n)
	}
	if ws := coord2.Workers(man.Points); len(ws) != 0 {
		t.Errorf("workers = %+v for points the coordinator served itself, want none", ws)
	}
}

// TestProtocolRejects pins the coordinator's admission checks: wrong
// protocol version, duplicate worker names, skewed spec hashes at lease
// time, and a worker whose local point expansion hashes differently.
func TestProtocolRejects(t *testing.T) {
	const seed = uint64(7)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reg := telemetry.NewRegistry()
	pmap := map[string][]sweep.Point{"fig9": testPoints(3, 0)}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		RootSeed: seed, SpecHash: HashPoints(seed, pmap),
		LeaseTTL: 500 * time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Wrong protocol version at register time.
	if _, _, err := rawExchange(t, coord.Addr(),
		frame{FrameRegister, RegisterMsg{Version: 99, Worker: "vskew"}}); err == nil ||
		!strings.Contains(err.Error(), "protocol version") {
		t.Errorf("version-skewed register: %v, want protocol version error", err)
	}
	// Empty worker name.
	if _, _, err := rawExchange(t, coord.Addr(),
		frame{FrameRegister, RegisterMsg{Version: ProtoVersion}}); err == nil ||
		!strings.Contains(err.Error(), "empty worker name") {
		t.Errorf("anonymous register: %v, want empty-name error", err)
	}
	// Spec-hash skew at lease-request time.
	if _, _, err := rawExchange(t, coord.Addr(),
		frame{FrameRegister, RegisterMsg{Version: ProtoVersion, Worker: "raw"}},
		frame{FrameLeaseReq, LeaseReqMsg{SpecHash: "deadbeefdeadbeef"}}); err == nil ||
		!strings.Contains(err.Error(), "spec hash") {
		t.Errorf("hash-skewed lease request: %v, want spec hash error", err)
	}

	// Duplicate worker name: second Dial with the same name is rejected.
	w1, err := Dial(coord.Addr(), WorkerConfig{Name: "twin", Runner: &sweep.Runner{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w1.Close()
	if _, err := Dial(coord.Addr(), WorkerConfig{Name: "twin", Runner: &sweep.Runner{}, Registry: reg}); err == nil ||
		!strings.Contains(err.Error(), "already registered") {
		t.Errorf("duplicate name accepted: %v", err)
	}

	// Worker-side hash check: a worker expanding a different point set
	// must abort before computing anything.
	w2, err := Dial(coord.Addr(), WorkerConfig{Name: "skewed", Runner: &sweep.Runner{}, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	err = w2.Run(ctx, map[string][]sweep.Point{"fig9": testPoints(7, 0)})
	if err == nil || !strings.Contains(err.Error(), "hash mismatch") {
		t.Errorf("skewed worker ran anyway: %v", err)
	}
}

// frame is one scripted client frame for rawExchange.
type frame struct {
	t FrameType
	v any
}

// rawExchange dials the coordinator as a hand-rolled client, sends the
// scripted frames and returns the first reply after the last send. A
// FrameError reply is returned as an error carrying the message.
func rawExchange(t *testing.T, addr string, frames ...frame) (FrameType, []byte, error) {
	t.Helper()
	conn, err := dialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var lastT FrameType
	var lastP []byte
	for i, f := range frames {
		if err := writeMsg(conn, f.t, f.v); err != nil {
			return 0, nil, err
		}
		// Every scripted frame here is one that elicits a reply
		// (register -> welcome/error, lease-req -> lease/wait/done/error).
		rt, payload, err := ReadFrame(conn)
		if err != nil {
			return 0, nil, fmt.Errorf("after frame %d: %w", i, err)
		}
		if rt == FrameError {
			var em ErrorMsg
			decodeMsg(rt, payload, &em)
			return rt, payload, errors.New(em.Msg)
		}
		lastT, lastP = rt, payload
	}
	return lastT, lastP, nil
}

// TestHashPoints pins the spec hash: stable across map iteration order,
// sensitive to root seed, point keys and point count.
func TestHashPoints(t *testing.T) {
	a := map[string][]sweep.Point{"fig9": testPoints(5, 0), "fig10": testPoints(3, 0)}
	b := map[string][]sweep.Point{"fig10": testPoints(3, 0), "fig9": testPoints(5, 0)}
	if HashPoints(1, a) != HashPoints(1, b) {
		t.Error("hash depends on map construction order")
	}
	if HashPoints(1, a) == HashPoints(2, a) {
		t.Error("hash ignores root seed")
	}
	c := map[string][]sweep.Point{"fig9": testPoints(6, 0), "fig10": testPoints(3, 0)}
	if HashPoints(1, a) == HashPoints(1, c) {
		t.Error("hash ignores point count")
	}
	d := map[string][]sweep.Point{"fig9": testPoints(5, 0), "fig10": testPoints(3, 0)}
	d["fig9"][2].Key = "load=xx"
	if HashPoints(1, a) == HashPoints(1, d) {
		t.Error("hash ignores point keys")
	}
}
