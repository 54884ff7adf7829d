// Package metrics provides the measurement machinery for the simulation
// harness: sample collectors with exact percentiles and peak trackers
// for queue occupancy.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Sample collects float64 observations and answers exact order statistics.
// It keeps every value; the experiments collect at most a few hundred
// thousand points.
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
}

// Reserve grows the sample's capacity to hold at least n observations in
// total, so a caller that knows its observation count up front (e.g. one
// FCT per flow) can keep Add free of append regrowth — a requirement of
// the fluid event loop's zero-allocation contract.
func (s *Sample) Reserve(n int) {
	if n <= cap(s.vals) {
		return
	}
	vals := make([]float64, len(s.vals), n)
	copy(vals, s.vals)
	s.vals = vals
}

// Reset forgets every observation while keeping the backing array, so a
// caller that rebuilds a sample per sweep point (or per manifest flush)
// reuses the same allocation instead of growing a fresh slice each time.
func (s *Sample) Reset() {
	s.vals = s.vals[:0]
	s.sorted = false
	s.sum = 0
}

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// Count returns the number of observations.
func (s *Sample) Count() int { return len(s.vals) }

// Mean returns the arithmetic mean, or NaN when empty.
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	return s.sum / float64(len(s.vals))
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or NaN when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v outside (0,100]", p))
	}
	s.ensureSorted()
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

// Min returns the smallest observation, or NaN when empty.
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation, or NaN when empty.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Merge folds every observation of src into s.
func (s *Sample) Merge(src *Sample) {
	for _, v := range src.vals {
		s.Add(v)
	}
}

// Peak tracks the running maximum of a gauge (e.g. queue occupancy).
type Peak struct {
	cur  int
	peak int
}

// Add shifts the gauge by delta (may be negative) and updates the peak.
func (p *Peak) Add(delta int) {
	p.cur += delta
	if p.cur < 0 {
		panic(fmt.Sprintf("metrics: gauge went negative (%d)", p.cur))
	}
	if p.cur > p.peak {
		p.peak = p.cur
	}
}

// Peak returns the maximum value observed.
func (p *Peak) Peak() int { return p.peak }
