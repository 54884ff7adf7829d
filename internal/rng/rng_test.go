package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 equal draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(1)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(2)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Errorf("Intn(10) value %d seen %d times, want ~10000", v, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(5)
	}
	mean := sum / n
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("Exp mean = %v, want ~5", mean)
	}
}

func TestParetoShape(t *testing.T) {
	// With alpha=1.05 and mean 100e3, the median must be far below the
	// mean (heavy tail): median = xm * 2^(1/alpha).
	r := New(4)
	const n = 200000
	vals := make([]float64, n)
	below := 0
	for i := range vals {
		vals[i] = r.Pareto(1.05, 100e3)
		if vals[i] < 100e3 {
			below++
		}
	}
	// The vast majority of draws are below the mean for such a heavy tail.
	if frac := float64(below) / n; frac < 0.90 {
		t.Errorf("fraction below mean = %v, want > 0.90 (heavy tail)", frac)
	}
	// Minimum equals the scale parameter xm = mean*(a-1)/a.
	xm := 100e3 * 0.05 / 1.05
	for _, v := range vals[:1000] {
		if v < xm*0.999 {
			t.Fatalf("Pareto draw %v below scale %v", v, xm)
		}
	}
}

func TestParetoPanicsOnBadAlpha(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Pareto(1.0) did not panic")
		}
	}()
	New(1).Pareto(1.0, 10)
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ~10", mean)
	}
	if math.Abs(sd-3) > 0.05 {
		t.Errorf("Normal stddev = %v, want ~3", sd)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for trial := 0; trial < 100; trial++ {
		p := r.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				t.Fatalf("not a permutation: %v", p)
			}
			seen[v] = true
		}
	}
}

func TestPointSeedDeterministicAndDistinct(t *testing.T) {
	if PointSeed(1, 0) != PointSeed(1, 0) {
		t.Fatal("PointSeed not deterministic")
	}
	// Substreams of one root are pairwise distinct; the same index under
	// nearby roots is distinct too.
	seen := make(map[uint64]string)
	record := func(seed uint64, what string) {
		if prev, ok := seen[seed]; ok {
			t.Fatalf("seed collision: %s and %s both map to %#x", prev, what, seed)
		}
		seen[seed] = what
	}
	for root := uint64(0); root < 8; root++ {
		for idx := uint64(0); idx < 512; idx++ {
			record(PointSeed(root, idx), "")
		}
	}
}

func TestPointSeedStreamsIndependent(t *testing.T) {
	// Streams seeded from adjacent substreams should not correlate.
	a := New(PointSeed(1, 0))
	b := New(PointSeed(1, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("adjacent substreams produced %d/1000 equal draws", same)
	}
}
