package schedule

import (
	"fmt"
	"testing"
)

// familyGrid builds every schedule family at one node count. The
// geometry knobs scale with n so each size exercises a different
// epoch/uplink shape: grating ports grow with n, the fractional rotor
// keeps an uplink count coprime with n (maximal epoch), and the
// degraded wrapper fails two spread-out nodes.
func familyGrid(t *testing.T, n int) []struct {
	name    string
	s       Schedule
	uniform bool // CheckUniformCoverage applies (not for Degraded)
} {
	t.Helper()
	ports := 4
	for ports*ports < n {
		ports *= 2 // 8→4, 64→8, 256→16
	}
	mustGrouped := func(m int) Schedule {
		g, err := NewGrouped(n, ports, m)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	mustRotor := func(u int) Schedule {
		r, err := NewRotor(n, u)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// mustNew checks which family New picks for the uplink count.
	mustNew := func(u int, grouped bool) Schedule {
		s, err := New(n, ports, u)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := s.(*Grouped); ok != grouped {
			t.Fatalf("New(%d, %d, %d) = %T, want grouped %v", n, ports, u, s, grouped)
		}
		return s
	}
	degraded, err := NewDegraded(mustRotor(4), []int{1, n / 2})
	if err != nil {
		t.Fatal(err)
	}
	compact, _, err := Compact(mustRotor(4), []int{1, n / 2})
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name    string
		s       Schedule
		uniform bool
	}{
		{"grouped_m1", mustGrouped(1), true},
		{"grouped_m2", mustGrouped(2), true},
		{"rotor_even", mustRotor(4), true},
		{"rotor_frac", mustRotor(3), true},
		{"degraded", degraded, false},
		{"compact", compact, true},
		{"new_grouped", mustNew(2*n/ports, true), true},
		{"new_rotor", mustNew(n/ports+1, false), true},
	}
}

// TestFamilyProperties sweeps the defining schedule invariants across
// every family at n in {8, 64, 256}: contention freedom always, uniform
// coverage wherever it is promised (a Degraded schedule deliberately
// blanks failed slots, so only contention freedom survives there).
func TestFamilyProperties(t *testing.T) {
	for _, n := range []int{8, 64, 256} {
		for _, f := range familyGrid(t, n) {
			t.Run(fmt.Sprintf("%s/n%d", f.name, n), func(t *testing.T) {
				if err := CheckContentionFree(f.s); err != nil {
					t.Errorf("contention: %v", err)
				}
				if !f.uniform {
					return
				}
				if err := CheckUniformCoverage(f.s); err != nil {
					t.Errorf("coverage: %v", err)
				}
			})
		}
	}
}
