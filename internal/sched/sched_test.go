package sched

import (
	"testing"

	"sirius/internal/rng"
	"sirius/internal/schedule"
)

func planOnce(t *testing.T, s Scheduler, epoch int64, demand []int32) ([]int32, int) {
	t.Helper()
	n, u, e := s.Nodes(), s.Uplinks(), s.SlotsPerEpoch()
	if demand == nil {
		demand = make([]int32, n*n)
	}
	dst := make([]int32, e*n*u)
	rc := s.Plan(epoch, demand, dst)
	return dst, rc
}

func TestStaticAdapterMatchesSchedule(t *testing.T) {
	g, err := schedule.NewGrouped(16, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := NewStatic(g)
	if a.Nodes() != g.Nodes() || a.Uplinks() != g.Uplinks() ||
		a.SlotsPerEpoch() != g.SlotsPerEpoch() || a.ConnectionsPerEpoch() != g.ConnectionsPerEpoch() {
		t.Fatal("adapter geometry disagrees with wrapped schedule")
	}
	for _, epoch := range []int64{0, 1, 7} {
		dst, rc := planOnce(t, a, epoch, nil)
		if rc != 0 {
			t.Fatalf("static adapter charged %d reconfig link-slots", rc)
		}
		for slot := 0; slot < g.SlotsPerEpoch(); slot++ {
			for node := 0; node < g.Nodes(); node++ {
				for u := 0; u < g.Uplinks(); u++ {
					want := int32(g.Dst(node, u, slot))
					if got := dst[(slot*g.Nodes()+node)*g.Uplinks()+u]; got != want {
						t.Fatalf("epoch %d slot %d node %d uplink %d: got %d want %d", epoch, slot, node, u, got, want)
					}
				}
			}
		}
	}
}

func TestRotorRRContentionFreeAndUniform(t *testing.T) {
	for _, tc := range []struct{ n, up, slots, recfg int }{
		{8, 2, 4, 1},
		{64, 6, 16, 2},
		{16, 1, 8, 0},
	} {
		r, err := NewRotorRR(tc.n, tc.up, tc.slots, tc.recfg)
		if err != nil {
			t.Fatal(err)
		}
		// Per-pair serving slots accumulated over one full rotor cycle
		// (n-1 epochs): blind round-robin must cover every ordered
		// pair src != dst equally.
		count := make([]int64, tc.n*tc.n)
		for epoch := int64(0); epoch < int64(tc.n-1); epoch++ {
			dst, rc := planOnce(t, r, epoch, nil)
			if want := tc.recfg * tc.n * tc.up; rc != want {
				t.Fatalf("n=%d epoch %d: reconfig %d, want %d", tc.n, epoch, rc, want)
			}
			if err := CheckMatching(tc.n, tc.up, tc.slots, dst); err != nil {
				t.Fatalf("n=%d epoch %d: %v", tc.n, epoch, err)
			}
			for i, d := range dst {
				if d >= 0 {
					src := i / tc.up % tc.n
					count[src*tc.n+int(d)]++
				}
			}
		}
		want := int64(tc.up * (tc.slots - tc.recfg))
		for src := 0; src < tc.n; src++ {
			for d := 0; d < tc.n; d++ {
				got := count[src*tc.n+d]
				if src == d {
					if got != 0 {
						t.Fatalf("n=%d: self-pair %d served %d slots", tc.n, src, got)
					}
					continue
				}
				if got != want {
					t.Fatalf("n=%d: pair (%d,%d) served %d slots per cycle, want %d", tc.n, src, d, got, want)
				}
			}
		}
	}
}

// servedPerPair tallies how many cells a plan serves for each (src,dst).
func servedPerPair(n, up int, dst []int32) []int32 {
	served := make([]int32, n*n)
	for i, d := range dst {
		if d >= 0 {
			src := i / up % n
			served[src*n+int(d)]++
		}
	}
	return served
}

func TestPULSEServesWithinDemand(t *testing.T) {
	const n, up, slots = 16, 3, 8
	p, err := NewPULSE(n, up, slots, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]int32, n*n)
	demand[0*n+5] = 100 // hot pair
	demand[1*n+5] = 3
	demand[2*n+7] = 1
	dst, rc := planOnce(t, p, 0, demand)
	if err := CheckMatching(n, up, slots, dst); err != nil {
		t.Fatal(err)
	}
	served := servedPerPair(n, up, dst)
	for i, s := range served {
		if s > demand[i] {
			t.Fatalf("pair (%d,%d) served %d > demand %d", i/n, i%n, s, demand[i])
		}
	}
	// The hot pair should get close to a full plane's serving slots:
	// 7 serving slots (8 minus 1 reconfig) on each of up to 3 uplinks,
	// capped by receiver-port contention with (1,5).
	if served[0*n+5] < slots-1 {
		t.Fatalf("hot pair served only %d slots", served[0*n+5])
	}
	if rc <= 0 {
		t.Fatal("expected reconfiguration overhead on a loaded epoch")
	}
	// Zero demand plans an all-dark epoch.
	dark, rc0 := planOnce(t, p, 1, nil)
	if rc0 != 0 {
		t.Fatalf("idle epoch charged %d reconfig link-slots", rc0)
	}
	for _, d := range dark {
		if d != -1 {
			t.Fatal("idle epoch planned a live link")
		}
	}
}

func TestNegotiaToRDelayHoldRelease(t *testing.T) {
	const n, up, slots = 8, 2, 8
	g, err := NewNegotiaToR(n, up, slots, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	demand := make([]int32, n*n)
	demand[3*n+4] = 5
	// Epoch 0: requests in flight, nothing granted.
	dst0, rc0 := planOnce(t, g, 0, demand)
	if rc0 != 0 {
		t.Fatalf("first epoch charged %d reconfig link-slots", rc0)
	}
	for _, d := range dst0 {
		if d != -1 {
			t.Fatal("first epoch planned a live link before any request arrived")
		}
	}
	// Epoch 1: the epoch-0 demand is visible; both uplinks establish
	// circuits to the hot destination (distinct receive ports), each
	// pays 2 dark slots, the 5 requested cells are served, circuits
	// release as the demand drains.
	idle := make([]int32, n*n)
	dst1, rc1 := planOnce(t, g, 1, idle)
	if err := CheckMatching(n, up, slots, dst1); err != nil {
		t.Fatal(err)
	}
	if rc1 != 2*up {
		t.Fatalf("reconfig = %d link-slots, want %d", rc1, 2*up)
	}
	served := servedPerPair(n, up, dst1)
	if served[3*n+4] != 5 {
		t.Fatalf("pair (3,4) served %d cells, want 5", served[3*n+4])
	}
	// Epoch 2: demand drained, fabric dark again.
	dst2, _ := planOnce(t, g, 2, idle)
	for _, d := range dst2 {
		if d != -1 {
			t.Fatal("circuit not released after demand drained")
		}
	}
}

func TestSchedulersReplayAfterReset(t *testing.T) {
	const n, up, slots = 12, 2, 6
	mk := func() []Scheduler {
		p, _ := NewPULSE(n, up, slots, 1, 0)
		g, _ := NewNegotiaToR(n, up, slots, 1, 0)
		r, _ := NewRotorRR(n, up, slots, 1)
		return []Scheduler{p, g, r}
	}
	demands := make([][]int32, 4)
	rn := rng.New(99)
	for e := range demands {
		demands[e] = make([]int32, n*n)
		for i := range demands[e] {
			if rn.Intn(3) == 0 {
				demands[e][i] = int32(rn.Intn(20))
			}
		}
	}
	run := func(s Scheduler) [][]int32 {
		s.Reset()
		var out [][]int32
		for e, d := range demands {
			dst := make([]int32, slots*n*up)
			s.Plan(int64(e), d, dst)
			out = append(out, dst)
		}
		return out
	}
	for _, s := range mk() {
		a, b := run(s), run(s)
		for e := range a {
			for i := range a[e] {
				if a[e][i] != b[e][i] {
					t.Fatalf("%T: replay diverged at epoch %d entry %d", s, e, i)
				}
			}
		}
	}
}

func TestCheckMatchingDetectsContention(t *testing.T) {
	const n, up, slots = 4, 1, 1
	dst := []int32{2, 2, -1, -1} // nodes 0 and 1 both target 2 on uplink 0
	if err := CheckMatching(n, up, slots, dst); err == nil {
		t.Fatal("contention not detected")
	}
	dst = []int32{9, -1, -1, -1}
	if err := CheckMatching(n, up, slots, dst); err == nil {
		t.Fatal("out-of-range destination not detected")
	}
	if err := CheckMatching(n, up, slots, []int32{-1}); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := NewRotorRR(1, 1, 4, 0); err == nil {
		t.Fatal("nodes < 2 accepted")
	}
	if _, err := NewRotorRR(8, 2, 4, 4); err == nil {
		t.Fatal("reconfig >= slots accepted")
	}
	if _, err := NewPULSE(8, 0, 4, 0, 0); err == nil {
		t.Fatal("uplinks < 1 accepted")
	}
	if _, err := NewNegotiaToR(8, 2, 0, 0, 0); err == nil {
		t.Fatal("slots < 1 accepted")
	}
}
