package exp

import (
	"context"
	"testing"
)

// TestArchCompareShapes pins the grid layout and the per-family
// invariants: one row per family per grid point, reconfiguration
// overhead only where a dynamic planner pays it, and a sane fraction.
func TestArchCompareShapes(t *testing.T) {
	s := TinyScale()
	tab, err := ArchCompare(context.Background(), nil, s,
		[]float64{0.5}, []float64{100e3}, []float64{0, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(ArchFamilies); len(tab.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), want)
	}
	for i, r := range tab.Rows {
		if got, want := r[3], ArchFamilies[i%len(ArchFamilies)]; got != want {
			t.Fatalf("row %d arch = %q, want %q", i, got, want)
		}
		frac := cellF(t, tab, i, 6)
		if frac < 0 || frac >= 1 {
			t.Errorf("row %d (%s): reconfig_frac %v outside [0,1)", i, r[3], frac)
		}
		switch r[3] {
		case "esn", "static":
			if frac != 0 {
				t.Errorf("row %d (%s): reconfig_frac %v, want 0", i, r[3], frac)
			}
		default:
			if frac == 0 {
				t.Errorf("row %d (%s): dynamic family paid no reconfiguration", i, r[3])
			}
		}
	}
}

// TestArchCompareReplays is the experiment-level determinism check: two
// independent runs of the same grid must produce byte-identical tables
// (fresh planner instances per point, no shared state).
func TestArchCompareReplays(t *testing.T) {
	s := TinyScale()
	run := func() string {
		t.Helper()
		tab, err := ArchCompare(context.Background(), nil, s,
			[]float64{0.75}, []float64{4096}, []float64{0.5})
		if err != nil {
			t.Fatal(err)
		}
		return render(tab)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("archcompare replay diverged\nfirst:\n%s\nsecond:\n%s", a, b)
	}
}

// TestArchPlannerGeometry checks every family shares one fabric budget
// at a given scale — the comparison's like-for-like premise.
func TestArchPlannerGeometry(t *testing.T) {
	s := TinyScale()
	n, up, slots := s.archGeometry()
	for _, fam := range []string{"rotorrr", "pulse", "negotiator"} {
		p, _, err := s.archPlanner(fam)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		if p.Nodes() != n || p.Uplinks() != up || p.SlotsPerEpoch() != slots {
			t.Errorf("%s geometry (%d,%d,%d), want (%d,%d,%d)", fam,
				p.Nodes(), p.Uplinks(), p.SlotsPerEpoch(), n, up, slots)
		}
	}
	if _, _, err := s.archPlanner("nope"); err == nil {
		t.Error("unknown family accepted")
	}
	if _, _, err := s.archPlanner("static"); err != nil {
		t.Errorf("static: %v", err)
	}
}
