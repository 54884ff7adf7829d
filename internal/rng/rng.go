// Package rng provides a small, fast, deterministic random number generator
// and the samplers used by the Sirius workload generator.
//
// Determinism matters: every experiment in EXPERIMENTS.md is reproducible
// from a seed. The generator is xoshiro256**, seeded through splitmix64, the
// standard pairing recommended by its authors.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic xoshiro256** generator. It is not safe for
// concurrent use; give each goroutine its own. The four state
// words are named fields rather than an array so Uint64 stays within the
// compiler's inlining budget.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from the given seed via splitmix64.
func New(seed uint64) *RNG {
	var r RNG
	sm := seed
	state := [4]*uint64{&r.s0, &r.s1, &r.s2, &r.s3}
	for _, p := range state {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		*p = z ^ (z >> 31)
	}
	// Avoid the all-zero state (splitmix cannot produce it from any seed,
	// but be defensive).
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
	return &r
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix on 64 bits.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// PointSeed derives the seed of substream index from the root seed. The
// experiment-sweep engine (internal/sweep) hands each grid point the
// substream PointSeed(rootSeed, pointIndex): because the derivation is a
// pure function of (root, index) and never touches shared generator
// state, a sweep executed on one goroutine and on N goroutines produces
// bit-identical results for every point.
//
// The construction is two rounds of splitmix64 mixing with the golden
// ratio increment (the same pairing New uses), so nearby roots or indices
// land in unrelated states and no (root, index) pair collides with a
// plain New(seed) stream in practice.
func PointSeed(root, index uint64) uint64 {
	return mix64(mix64(root+0x9e3779b97f4a7c15) ^ (index+1)*0xbf58476d1ce4e5b9)
}

// Uint64 returns the next 64 random bits. The body works on locals and
// uses bits.RotateLeft64 (a compiler intrinsic) so the function fits the
// inlining budget: the simulator's congestion control draws tens of
// millions of values per run and the call overhead was measurable.
func (r *RNG) Uint64() uint64 {
	s1 := r.s1
	result := bits.RotateLeft64(s1*5, 7) * 9
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	r.s1 = s1 ^ s2
	r.s0 ^= s3
	r.s2 = s2 ^ s1<<17
	r.s3 = bits.RotateLeft64(s3, 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Exp returns an exponentially distributed value with the given mean.
// Used for Poisson inter-arrival times.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Pareto returns a Pareto-distributed value with the given shape alpha and
// mean. The paper's workload uses shape 1.05 and mean 100 KB: heavy tailed,
// most flows small but most bytes in large flows.
//
// For a Pareto with scale xm and shape a > 1, mean = a*xm/(a-1), so
// xm = mean*(a-1)/a.
func (r *RNG) Pareto(alpha, mean float64) float64 {
	if alpha <= 1 {
		panic("rng: Pareto needs alpha > 1 for a finite mean")
	}
	xm := mean * (alpha - 1) / alpha
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation (Box-Muller).
func (r *RNG) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
