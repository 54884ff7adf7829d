package sweep

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sirius/internal/rng"
	"sirius/internal/telemetry"
)

// fakePoints builds n points whose rows are a deterministic function of
// (key, seed) — the same contract real experiment points obey.
func fakePoints(n int, delay time.Duration) []Point {
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("point=%d", i)
		pts[i] = Point{
			Key: key,
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				if delay > 0 {
					time.Sleep(delay)
				}
				r := rng.New(seed)
				return [][]string{{key, fmt.Sprint(r.Uint64()), fmt.Sprint(r.Uint64())}}, nil
			},
		}
	}
	return pts
}

func TestSerialParallelIdentical(t *testing.T) {
	pts := fakePoints(17, 0)
	var outs [][][][]string
	for _, par := range []int{1, 4, 16} {
		r := &Runner{Parallel: par, RootSeed: 99}
		rows, err := r.Run(context.Background(), "det", pts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		outs = append(outs, rows)
	}
	if !reflect.DeepEqual(outs[0], outs[1]) || !reflect.DeepEqual(outs[0], outs[2]) {
		t.Fatal("parallel sweeps diverged from the serial sweep")
	}
	// Rows come back in point order regardless of completion order.
	for i, rows := range outs[2] {
		if rows[0][0] != fmt.Sprintf("point=%d", i) {
			t.Fatalf("point %d returned row %q out of order", i, rows[0][0])
		}
	}
	// A different root seed changes every point.
	r := &Runner{Parallel: 4, RootSeed: 100}
	other, err := r.Run(context.Background(), "det", pts)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(outs[0], other) {
		t.Fatal("changing the root seed did not change the sweep")
	}
}

func TestCacheHitMissCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	id := Identity{Sweep: "s", Key: "k=1", Seed: 42}
	if _, _, ok := c.Get(id); ok {
		t.Fatal("empty cache reported a hit")
	}
	rows := [][]string{{"a", "b"}, {"c", "d"}}
	if err := c.Put(id, rows, 123); err != nil {
		t.Fatal(err)
	}
	got, wall, ok := c.Get(id)
	if !ok || wall != 123 || !reflect.DeepEqual(got, rows) {
		t.Fatalf("hit = %v rows=%v wall=%d", ok, got, wall)
	}
	// A different identity with the same key text is a miss.
	if _, _, ok := c.Get(Identity{Sweep: "s", Key: "k=1", Seed: 43}); ok {
		t.Fatal("seed-mismatched identity hit the cache")
	}
	// Corrupt the entry on disk: Get must treat it as a miss.
	path := filepath.Join(dir, id.Hash()+".json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(id); ok {
		t.Fatal("corrupt entry replayed")
	}
	// A well-formed entry whose stored identity disagrees (simulated
	// hash collision) is also a miss.
	if err := os.WriteFile(path,
		[]byte(`{"identity":{"sweep":"s","key":"other","seed":42},"rows":[["x"]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(id); ok {
		t.Fatal("colliding entry replayed")
	}
	// Put repairs the slot.
	if err := c.Put(id, rows, 7); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(id); !ok {
		t.Fatal("repaired entry missed")
	}
}

func TestRunnerUsesCache(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var computes atomic.Int64
	pts := make([]Point, 6)
	for i := range pts {
		key := fmt.Sprintf("p=%d", i)
		pts[i] = Point{Key: key, Run: func(ctx context.Context, seed uint64) ([][]string, error) {
			computes.Add(1)
			return [][]string{{key, fmt.Sprint(seed)}}, nil
		}}
	}
	r := &Runner{Parallel: 3, RootSeed: 5, Cache: c}
	cold, err := r.Run(context.Background(), "cached", pts)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 6 {
		t.Fatalf("cold run computed %d/6 points", computes.Load())
	}
	warm, err := r.Run(context.Background(), "cached", pts)
	if err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 6 {
		t.Fatalf("warm run recomputed: %d computes total", computes.Load())
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm rows differ from cold rows")
	}
	mans := r.Manifests()
	if len(mans) != 2 || mans[0].CacheHit != 0 || mans[1].CacheHit != 6 {
		t.Fatalf("manifest cache accounting wrong: %+v", mans)
	}
	// A different root seed must not hit the old entries.
	r2 := &Runner{Parallel: 3, RootSeed: 6, Cache: c}
	if _, err := r2.Run(context.Background(), "cached", pts); err != nil {
		t.Fatal(err)
	}
	if computes.Load() != 12 {
		t.Fatalf("root-seed change reused stale entries: %d computes", computes.Load())
	}
}

func TestErrorCancelsSweep(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	pts := make([]Point, 64)
	for i := range pts {
		i := i
		pts[i] = Point{Key: fmt.Sprintf("p=%d", i), Run: func(ctx context.Context, seed uint64) ([][]string, error) {
			started.Add(1)
			if i == 3 {
				return nil, boom
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			return [][]string{{"ok"}}, nil
		}}
	}
	r := &Runner{Parallel: 4, RootSeed: 1}
	_, err := r.Run(context.Background(), "failing", pts)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if started.Load() == 64 {
		t.Error("failure did not short-circuit the sweep")
	}
	man := r.Manifests()
	if len(man) != 1 || man[0].Err == "" {
		t.Fatalf("manifest did not record the failure: %+v", man)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := &Runner{Parallel: 2, RootSeed: 1}
	_, err := r.Run(ctx, "cancelled", fakePoints(8, 0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestProgressOutput(t *testing.T) {
	var sb strings.Builder
	r := &Runner{Parallel: 2, RootSeed: 1, Progress: &sb}
	if _, err := r.Run(context.Background(), "prog", fakePoints(3, 0)); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "[prog]") != 3 || !strings.Contains(out, "3/3") {
		t.Fatalf("progress output malformed:\n%s", out)
	}
}

func TestManifestWriteFile(t *testing.T) {
	r := &Runner{Parallel: 1, RootSeed: 1}
	if _, err := r.Run(context.Background(), "m", fakePoints(2, 0)); err != nil {
		t.Fatal(err)
	}
	m := &RunManifest{
		Command:   "test",
		StartedAt: time.Now(),
		Parallel:  1,
		RootSeed:  1,
		Sweeps:    r.Manifests(),
	}
	path := filepath.Join(t.TempDir(), "sub", "manifest.json")
	if err := telemetry.WriteFileAtomic(path, m.Write); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name": "m"`, `"points"`, `"root_seed"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("manifest missing %q", want)
		}
	}
}

// TestSpansAndPercentiles covers the observability plumbing: per-point
// spans land in an attached Tracer (and cache replays as instants), the
// manifest carries point start offsets and wall-time percentiles, and
// CaptureEnv describes the running toolchain.
func TestSpansAndPercentiles(t *testing.T) {
	tr := telemetry.NewTracer(1 << 10)
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Parallel: 2, RootSeed: 9, Cache: cache, Tracer: tr}
	pts := fakePoints(5, time.Millisecond)
	if _, err := r.Run(context.Background(), "spans", pts); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "spans", pts); err != nil { // all cached
		t.Fatal(err)
	}

	var spans, hits int
	for _, ev := range tr.Events() {
		switch ev.Name {
		case "point":
			spans++
			if ev.Args["sweep"] != "spans" || ev.Args["point"] == "" {
				t.Errorf("span args = %v", ev.Args)
			}
		case "cache-hit":
			hits++
		}
	}
	if spans != len(pts) || hits != len(pts) {
		t.Errorf("spans = %d, cache hits = %d, want %d each", spans, hits, len(pts))
	}

	mans := r.Manifests()
	if len(mans) != 2 {
		t.Fatalf("manifests = %d, want 2", len(mans))
	}
	for runIdx, man := range mans {
		if man.WallP50NS <= 0 || man.WallP95NS < man.WallP50NS || man.WallMaxNS < man.WallP95NS {
			t.Errorf("run %d: percentiles p50=%d p95=%d max=%d out of order",
				runIdx, man.WallP50NS, man.WallP95NS, man.WallMaxNS)
		}
	}
	// First run executed: every point carries a span (StartNS set for all
	// but possibly the very first, which can legitimately be offset 0).
	var sawStart bool
	for _, p := range mans[0].Points {
		if p.StartNS > 0 {
			sawStart = true
		}
		if p.WallNS <= 0 {
			t.Errorf("point %d: wall %d", p.Index, p.WallNS)
		}
	}
	if !sawStart {
		t.Error("no point recorded a positive start offset")
	}
	// Second run replayed: cached points keep the original wall time.
	for _, p := range mans[1].Points {
		if !p.Cached {
			t.Errorf("point %d not cached on re-run", p.Index)
		}
	}

	env := CaptureEnv()
	if env.GoVersion == "" || env.GOOS == "" || env.GOARCH == "" || env.GOMAXPROCS < 1 {
		t.Errorf("CaptureEnv incomplete: %+v", env)
	}
}
