package exp

import (
	"context"
	"testing"
	"time"

	"sirius/internal/sweep"
)

// TestSweepDeterminism is the engine's acceptance gate at the experiment
// layer: the same sweep with the same root seed must produce byte-for-byte
// identical tables serially and on 4 workers.
func TestSweepDeterminism(t *testing.T) {
	s := TinyScale()
	loads := []float64{0.25, 0.5, 0.75}

	run := func(parallel int) string {
		t.Helper()
		rn := &sweep.Runner{Parallel: parallel, RootSeed: s.Seed}
		tab, err := Fig9(context.Background(), rn, s, loads)
		if err != nil {
			t.Fatal(err)
		}
		return render(tab)
	}
	serial := run(1)
	for i := 0; i < 2; i++ { // twice: completion order varies between runs
		if par := run(4); par != serial {
			t.Fatalf("parallel table diverged from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				serial, par)
		}
	}
	// The nil-runner convenience path matches too (it roots at s.Seed).
	tab, err := Fig9(context.Background(), nil, s, loads)
	if err != nil {
		t.Fatal(err)
	}
	if render(tab) != serial {
		t.Fatal("nil-runner table diverged from explicit serial runner")
	}

	// A different root seed changes the table (the substreams are real).
	rn := &sweep.Runner{Parallel: 2, RootSeed: s.Seed + 1}
	other, err := Fig9(context.Background(), rn, s, loads)
	if err != nil {
		t.Fatal(err)
	}
	if render(other) == serial {
		t.Fatal("root seed change did not change the table")
	}
}

// TestSweepCacheRoundTrip checks the warm path end to end: a second run
// against the same cache replays every point, produces the identical
// table, and is dramatically faster.
func TestSweepCacheRoundTrip(t *testing.T) {
	s := TinyScale()
	cache, err := sweep.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rn := &sweep.Runner{Parallel: 2, RootSeed: s.Seed, Cache: cache}

	t0 := time.Now()
	cold, err := Fig10(context.Background(), rn, s, []int{2, 4}, []float64{0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	coldDur := time.Since(t0)

	t0 = time.Now()
	warm, err := Fig10(context.Background(), rn, s, []int{2, 4}, []float64{0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	warmDur := time.Since(t0)

	if render(cold) != render(warm) {
		t.Fatal("cached table differs from computed table")
	}
	mans := rn.Manifests()
	if len(mans) != 2 {
		t.Fatalf("manifests = %d", len(mans))
	}
	if mans[0].CacheHit != 0 || mans[1].CacheHit != 4 {
		t.Fatalf("cache hits: cold=%d warm=%d, want 0 and 4", mans[0].CacheHit, mans[1].CacheHit)
	}
	// Warm must be much faster; be lenient under -race and loaded CI.
	if warmDur > coldDur/2 {
		t.Errorf("warm run (%v) not meaningfully faster than cold (%v)", warmDur, coldDur)
	}
}

// TestSweepCancellation: a cancelled context aborts a sweep experiment
// and surfaces the context error.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Fig9(ctx, nil, TinyScale(), []float64{0.5}); err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
}
