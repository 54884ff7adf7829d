// Package sched is the dynamic-scheduler layer above the static
// internal/schedule tables: fabric architectures that recompute their
// connection pattern every epoch from observed demand, under one
// pluggable Scheduler interface the core engine drives at each epoch
// boundary.
//
// Four families are provided:
//
//   - Static: an adapter that replays any schedule.Schedule (Grouped,
//     Rotor, Degraded, ...) unchanged every epoch — today's static
//     Sirius schedules are just one Scheduler implementation.
//   - RotorRR: RotorNet-style round-robin matchings. Each uplink is a
//     rotor switch cycling through the cyclic-shift decomposition of
//     K_n, advancing one matching per epoch and paying a fixed number
//     of dark reconfiguration slots at each advance.
//   - PULSE: per-epoch demand-aware wavelength/matching assignment. A
//     bounded-iteration heuristic solver builds one matching per
//     (slot, uplink) from the sampled VOQ demand matrix.
//   - NegotiaToR: on-demand request/notify matchings. Demand is seen
//     one epoch late (requests ride the control plane), connections are
//     held while demand remains and pay a per-link reconfiguration
//     penalty when (re)established.
//
// Determinism contract: Plan must be a pure function of (epoch, demand,
// receiver state mutated only by previous Plan calls). No wall clock,
// no global RNG — the core replays runs byte-identically at a fixed
// seed, and the sweep cache depends on it.
package sched

import (
	"fmt"
	"math/bits"

	"sirius/internal/schedule"
)

// Scheduler plans one epoch of matchings at a time. Geometry accessors
// mirror schedule.Schedule so the core can size its tables; the dynamic
// part is Plan. Implementations are single-goroutine: the core calls
// Plan from its serial slot loop, and one Scheduler instance must not
// be shared between concurrent runs.
type Scheduler interface {
	// Nodes returns the number of nodes.
	Nodes() int
	// Uplinks returns the number of transceivers per node. Receive
	// ports equal uplink indices (the rotor convention): in any slot,
	// at most one source may target a given (dst, uplink) pair.
	Uplinks() int
	// SlotsPerEpoch returns the planning-epoch length in timeslots.
	SlotsPerEpoch() int
	// ConnectionsPerEpoch returns the nominal pair bandwidth in
	// slots/epoch, used by the core to size congestion windows.
	ConnectionsPerEpoch() int
	// Plan fills dst — laid out [(slot*nodes + node)*uplinks + uplink],
	// length SlotsPerEpoch()*Nodes()*Uplinks() — with the coming
	// epoch's matchings; -1 marks a dark (unused or reconfiguring)
	// entry. Plan defines every entry of dst whatever it held before,
	// so the caller may reuse one table across epochs. demand is the
	// read-only nodes×nodes matrix of cells queued at each source for
	// each destination, sampled by the core at the epoch boundary.
	// epoch counts boundaries since Reset. The
	// return value is the number of link-slots left dark to pay for
	// reconfiguration this epoch (the overhead numerator; the epoch's
	// total link-slots SlotsPerEpoch*Nodes*Uplinks is the denominator).
	Plan(epoch int64, demand []int32, dst []int32) (reconfigLinkSlots int)
	// Reset clears any cross-epoch state (held connections, delayed
	// demand) so a fresh run replays identically. The core calls it
	// once before the first Plan.
	Reset()
}

// CheckMatching verifies the contention-freedom safety property of one
// planned epoch: within any (slot, uplink) plane the non-dark
// src→dst map is injective, and every destination is in range. It is
// the dynamic counterpart of schedule.CheckContentionFree and backs the
// demand-matrix fuzzers.
func CheckMatching(nodes, uplinks, slots int, dst []int32) error {
	if len(dst) != slots*nodes*uplinks {
		return fmt.Errorf("sched: plan has %d entries, want %d", len(dst), slots*nodes*uplinks)
	}
	seen := make([]int32, nodes*uplinks)
	for slot := 0; slot < slots; slot++ {
		for i := range seen {
			seen[i] = -1
		}
		base := slot * nodes * uplinks
		for node := 0; node < nodes; node++ {
			for u := 0; u < uplinks; u++ {
				d := dst[base+node*uplinks+u]
				if d < 0 {
					continue
				}
				if int(d) >= nodes {
					return fmt.Errorf("sched: slot %d node %d uplink %d targets out-of-range %d", slot, node, u, d)
				}
				if prev := seen[int(d)*uplinks+u]; prev >= 0 {
					return fmt.Errorf("sched: slot %d: nodes %d and %d both target %d on uplink %d", slot, prev, node, d, u)
				}
				seen[int(d)*uplinks+u] = int32(node)
			}
		}
	}
	return nil
}

// Static adapts a static schedule.Schedule to the Scheduler interface:
// every epoch replays the same precomputed table with zero
// reconfiguration cost. A core run driven by Static(s) is byte-identical
// to one driven by s directly (pinned by tests) — the proof that the
// dynamic path is a strict generalization of the static one.
type Static struct {
	s     schedule.Schedule
	table []int32
}

// NewStatic precomputes the wrapped schedule's epoch table.
func NewStatic(s schedule.Schedule) *Static {
	n, u, e := s.Nodes(), s.Uplinks(), s.SlotsPerEpoch()
	table := make([]int32, e*n*u)
	for slot := 0; slot < e; slot++ {
		for node := 0; node < n; node++ {
			for up := 0; up < u; up++ {
				table[(slot*n+node)*u+up] = int32(s.Dst(node, up, slot))
			}
		}
	}
	return &Static{s: s, table: table}
}

// Nodes implements Scheduler.
func (a *Static) Nodes() int { return a.s.Nodes() }

// Uplinks implements Scheduler.
func (a *Static) Uplinks() int { return a.s.Uplinks() }

// SlotsPerEpoch implements Scheduler.
func (a *Static) SlotsPerEpoch() int { return a.s.SlotsPerEpoch() }

// ConnectionsPerEpoch implements Scheduler.
func (a *Static) ConnectionsPerEpoch() int { return a.s.ConnectionsPerEpoch() }

// Plan implements Scheduler by copying the precomputed table.
func (a *Static) Plan(epoch int64, demand []int32, dst []int32) int {
	copy(dst, a.table)
	return 0
}

// Reset implements Scheduler (no cross-epoch state).
func (a *Static) Reset() {}

// fillDark marks every entry of dst dark (-1), doubling a filled
// prefix with copy so the fill runs at memmove speed.
func fillDark(dst []int32) {
	if len(dst) == 0 {
		return
	}
	dst[0] = -1
	for i := 1; i < len(dst); i *= 2 {
		copy(dst[i:], dst[:i])
	}
}

// bitset is a dense set over small non-negative ints; next iterates
// it in ascending order at one word probe per 64 ids. internal/core
// has its own; a scheduler must not depend on the simulator that
// drives it.
type bitset []uint64

// bitsetWords returns the number of words needed for n bits.
func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the smallest member >= i, or -1 when there is none. It
// re-reads the word on every call, so members cleared behind the
// cursor during iteration are simply not revisited.
func (b bitset) next(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if m := b[w] & (^uint64(0) << (uint(i) & 63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}
