// Package timesync implements Sirius' decentralized time-synchronization
// protocol (§4.4).
//
// Nanosecond switching needs nodes synchronized to well under 100 ps. The
// passive gratings perform no retiming, so a receiver can extract the
// sender's clock from the incoming bit stream; and the cyclic schedule
// connects every pair once per epoch, so every node periodically hears a
// designated leader and can discipline its oscillator against it with a
// PLL/DLL. The leadership rotates round-robin every few epochs so a failed
// leader is replaced within microseconds. No atomic clocks are required:
// absolute drift is irrelevant as long as the nodes stay synchronized
// *with each other*.
package timesync

import (
	"fmt"
	"math"

	"sirius/internal/rng"
	"sirius/internal/simtime"
)

// Oscillator models a node's local clock: a static frequency error plus a
// slow random walk (temperature, aging).
type Oscillator struct {
	OffsetPPM float64 // static frequency error, parts per million
	WalkPPM   float64 // random-walk std dev per update, ppm
}

// DefaultOscillator returns a typical crystal: up to ±20 ppm static error
// with a small random walk — far worse than what uncorrected nanosecond
// slots could tolerate, which is the point of the protocol.
func DefaultOscillator(r *rng.RNG) Oscillator {
	return Oscillator{
		OffsetPPM: (r.Float64()*2 - 1) * 20,
		WalkPPM:   0.01,
	}
}

// Config parameterizes the protocol.
type Config struct {
	Nodes       int
	EpochLen    simtime.Duration
	LeaderTerm  int     // epochs between leader rotations
	MeasNoisePS float64 // std dev of per-epoch phase measurement noise
	PhaseGain   float64 // DLL phase-slew gain (fraction of error removed per epoch)
	FreqGain    float64 // PLL frequency-correction gain
	MaxSlewPPM  float64 // DLL clamp filtering byzantine frequency jumps
	Seed        uint64
}

// DefaultConfig returns a configuration matching the paper's deployment:
// 1.6 us epochs (16 slots x 100 ns) and leader rotation every few epochs.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:       nodes,
		EpochLen:    1600 * simtime.Nanosecond,
		LeaderTerm:  4,
		MeasNoisePS: 0.5,
		PhaseGain:   0.6,
		FreqGain:    0.25,
		MaxSlewPPM:  100,
		Seed:        1,
	}
}

// Network simulates the synchronization protocol across the fabric.
type Network struct {
	cfg    Config
	r      *rng.RNG
	osc    []Oscillator
	corr   []float64 // applied frequency correction, ppm
	phase  []float64 // clock phase error vs ideal time, ps
	failed []bool
	epoch  int
}

// NewNetwork creates a network of nodes with randomized oscillators.
func NewNetwork(cfg Config) (*Network, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("timesync: need >= 2 nodes")
	}
	if cfg.EpochLen <= 0 {
		return nil, fmt.Errorf("timesync: non-positive epoch")
	}
	if cfg.LeaderTerm < 1 {
		return nil, fmt.Errorf("timesync: leader term must be >= 1")
	}
	n := &Network{
		cfg:    cfg,
		r:      rng.New(cfg.Seed),
		osc:    make([]Oscillator, cfg.Nodes),
		corr:   make([]float64, cfg.Nodes),
		phase:  make([]float64, cfg.Nodes),
		failed: make([]bool, cfg.Nodes),
	}
	for i := range n.osc {
		n.osc[i] = DefaultOscillator(n.r)
	}
	return n, nil
}

// Fail takes node out of the protocol: it stops drifting, disciplining
// and leading, and Spread no longer counts it. When it was the leader, the
// next live node in the rotation takes over (§4.4).
func (n *Network) Fail(node int) { n.failed[node] = true }

// Leader returns the current leader, skipping failed nodes (the automatic
// replacement of §4.4).
func (n *Network) Leader() int {
	base := (n.epoch / n.cfg.LeaderTerm) % n.cfg.Nodes
	for k := 0; k < n.cfg.Nodes; k++ {
		l := (base + k) % n.cfg.Nodes
		if !n.failed[l] {
			return l
		}
	}
	return -1
}

// Step advances the network by one epoch: oscillators drift, then every
// live node disciplines its clock against the leader's beacon received
// during the epoch.
func (n *Network) Step() {
	epochPS := float64(n.cfg.EpochLen.Picoseconds())
	// Free-running drift.
	for i := range n.phase {
		if n.failed[i] {
			continue
		}
		n.osc[i].OffsetPPM += n.r.Normal(0, n.osc[i].WalkPPM)
		eff := n.osc[i].OffsetPPM - n.corr[i]
		n.phase[i] += eff * 1e-6 * epochPS
	}
	leader := n.Leader()
	if leader < 0 {
		n.epoch++
		return
	}
	// Discipline against the leader.
	for i := range n.phase {
		if i == leader || n.failed[i] {
			continue
		}
		measured := n.phase[i] - n.phase[leader] + n.r.Normal(0, n.cfg.MeasNoisePS)
		// DLL phase slew, clamped to filter out absurd corrections
		// (partially addressing byzantine clocks, §4.4).
		slew := n.cfg.PhaseGain * measured
		maxSlew := n.cfg.MaxSlewPPM * 1e-6 * epochPS
		slew = math.Max(-maxSlew, math.Min(maxSlew, slew))
		n.phase[i] -= slew
		// PLL frequency correction from the same observation.
		freqErrPPM := measured / epochPS * 1e6
		corr := n.cfg.FreqGain * freqErrPPM
		corr = math.Max(-n.cfg.MaxSlewPPM, math.Min(n.cfg.MaxSlewPPM, corr))
		n.corr[i] += corr
	}
	n.epoch++
}

// Spread returns the current maximum pairwise phase difference across live
// nodes, in picoseconds — the "±x ps" accuracy metric of §6.
func (n *Network) Spread() float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, p := range n.phase {
		if n.failed[i] {
			continue
		}
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	return hi - lo
}

// Stats summarizes a run.
type Stats struct {
	Epochs      int
	MaxSpreadPS float64 // worst pairwise deviation after warmup
	EndSpreadPS float64
}

// Run advances the network for the given number of epochs, ignoring the
// first warmup epochs when recording the maximum spread.
func (n *Network) Run(epochs, warmup int) Stats {
	s := Stats{Epochs: epochs}
	for e := 0; e < epochs; e++ {
		n.Step()
		if e >= warmup {
			s.MaxSpreadPS = math.Max(s.MaxSpreadPS, n.Spread())
		}
	}
	s.EndSpreadPS = n.Spread()
	return s
}
