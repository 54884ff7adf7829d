package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"sirius/internal/rng"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Max()) || !math.IsNaN(s.Min()) {
		t.Error("empty sample should answer NaN")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Errorf("count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Errorf("mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Errorf("p50 = %v, want 3", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := s.Percentile(1); got != 1 {
		t.Errorf("p1 = %v, want 1", got)
	}
}

func TestSampleReset(t *testing.T) {
	var s Sample
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	_ = s.Percentile(50) // force the sorted state so Reset must clear it
	before := cap(s.vals)

	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("count after Reset = %d, want 0", s.Count())
	}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Min()) || !math.IsNaN(s.Max()) {
		t.Error("reset sample should answer NaN like an empty one")
	}
	if cap(s.vals) != before {
		t.Errorf("Reset dropped the backing array: cap %d -> %d", before, cap(s.vals))
	}

	// Refill and verify statistics are those of the new data only.
	for i := 0; i < 1000; i++ {
		s.Add(float64(i * 2))
	}
	if s.Count() != 1000 || s.Mean() != 999 {
		t.Errorf("after refill: count=%d mean=%v, want 1000/999", s.Count(), s.Mean())
	}
	if got := s.Percentile(50); got != 998 {
		t.Errorf("p50 after refill = %v, want 998", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if got := s.Percentile(99); got != 99 {
		t.Errorf("p99 of 1..100 = %v, want 99", got)
	}
	if got := s.Percentile(50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
}

func TestAddAfterPercentile(t *testing.T) {
	var s Sample
	s.Add(10)
	_ = s.Percentile(50)
	s.Add(1)
	if got := s.Percentile(50); got != 1 {
		t.Errorf("p50 after re-add = %v, want 1", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	var s Sample
	s.Add(1)
	for _, p := range []float64{0, -1, 101} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(%v) did not panic", p)
				}
			}()
			s.Percentile(p)
		}()
	}
}

func TestPropertyPercentileMatchesSort(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := rng.New(seed)
		var s Sample
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64() * 1000
			s.Add(vals[i])
		}
		sort.Float64s(vals)
		for _, p := range []float64{1, 25, 50, 75, 99, 100} {
			rank := int(math.Ceil(p / 100 * float64(n)))
			if rank < 1 {
				rank = 1
			}
			if s.Percentile(p) != vals[rank-1] {
				return false
			}
		}
		return s.Min() == vals[0] && s.Max() == vals[n-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPeak(t *testing.T) {
	var p Peak
	p.Add(5)
	p.Add(3)
	p.Add(-6)
	if p.cur != 2 {
		t.Errorf("current = %d, want 2", p.cur)
	}
	if p.Peak() != 8 {
		t.Errorf("peak = %d, want 8", p.Peak())
	}
}

func TestPeakPanicsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative gauge did not panic")
		}
	}()
	var p Peak
	p.Add(-1)
}

func TestValuesAndMerge(t *testing.T) {
	var a, b Sample
	a.Add(1)
	a.Add(3)
	b.Add(2)
	a.Merge(&b)
	if a.Count() != 3 || a.Percentile(50) != 2 {
		t.Errorf("merge broken: count=%d p50=%v", a.Count(), a.Percentile(50))
	}
	if len(a.vals) != 3 {
		t.Errorf("values = %v", a.vals)
	}
}
