// Package phy models the physical-layer mechanisms that turn fast laser
// tuning into fast *end-to-end* reconfiguration (§4.5, §6, §A.1):
//
//   - the guardband budget: laser tuning + time-synchronization error +
//     clock-and-data-recovery (CDR) lock + cell preamble;
//   - PRBS generation and checking, used by the prototype emulation to
//     measure bit error rates;
//   - synthetic intensity waveforms for the Fig. 8c reproduction.
package phy

import (
	"encoding/binary"
	"math/bits"

	"sirius/internal/simtime"
)

// GuardbandBudget itemizes the dead time between timeslots during which the
// end-to-end path reconfigures and no data can be transferred.
type GuardbandBudget struct {
	LaserTuning simtime.Duration // worst-case tuning latency of the TX laser
	SyncError   simtime.Duration // worst-case time-sync inaccuracy across nodes
	CDRLock     simtime.Duration // receiver clock/data recovery lock time
	Preamble    simtime.Duration // cell preamble/framing overhead
}

// Total returns the required guardband.
func (g GuardbandBudget) Total() simtime.Duration {
	return g.LaserTuning + g.SyncError + g.CDRLock + g.Preamble
}

// SiriusV1Budget reproduces the first-generation prototype: a damped
// off-the-shelf DSDBR (92 ns worst case) with a 100 ns guardband.
func SiriusV1Budget() GuardbandBudget {
	return GuardbandBudget{
		LaserTuning: 92 * simtime.Nanosecond,
		SyncError:   100 * simtime.Picosecond,
		CDRLock:     900 * simtime.Picosecond,
		Preamble:    7 * simtime.Nanosecond,
	}
}

// SiriusV2Budget reproduces the second-generation prototype: the custom
// SOA-gated chip (912 ps worst case), sub-ns CDR via phase caching, and a
// 3.84 ns total guardband.
func SiriusV2Budget() GuardbandBudget {
	return GuardbandBudget{
		LaserTuning: 912 * simtime.Picosecond,
		SyncError:   10 * simtime.Picosecond, // ±5 ps measured
		CDRLock:     625 * simtime.Picosecond,
		Preamble:    2293 * simtime.Picosecond,
	}
}

// Slot describes the fixed-size timeslot structure: data time plus
// guardband. The paper's default simulation uses a 90 ns transmission slot
// (562-byte cells at 50 Gb/s) plus a 10 ns guardband.
type Slot struct {
	LineRate  simtime.Rate     // per-channel rate (50 Gb/s)
	CellBytes int              // cell size incl. headers
	Guardband simtime.Duration // reconfiguration dead time
}

// DefaultSlot returns the paper's simulation default.
func DefaultSlot() Slot {
	return Slot{LineRate: 50 * simtime.Gbps, CellBytes: 562, Guardband: 10 * simtime.Nanosecond}
}

// DataTime returns the cell serialization time.
func (s Slot) DataTime() simtime.Duration { return s.LineRate.TimeToSend(s.CellBytes) }

// Duration returns the total slot length.
func (s Slot) Duration() simtime.Duration { return s.DataTime() + s.Guardband }

// Overhead returns the fraction of the slot lost to the guardband.
func (s Slot) Overhead() float64 {
	return s.Guardband.Seconds() / s.Duration().Seconds()
}

// SlotForGuardband builds a slot in which the guardband is the given value
// and occupies the given fraction of the total slot, with the cell size
// derived from the remaining data time (the Fig. 11 methodology: "as we
// vary the guardband we proportionally adjust the slot length so the
// guardband always accounts for 10% of the total slot").
func SlotForGuardband(rate simtime.Rate, guard simtime.Duration, fraction float64) Slot {
	if fraction <= 0 || fraction >= 1 {
		panic("phy: guardband fraction must be in (0,1)")
	}
	total := simtime.Duration(float64(guard) / fraction)
	data := total - guard
	cell := rate.BytesIn(data)
	if cell < 1 {
		cell = 1
	}
	return Slot{LineRate: rate, CellBytes: cell, Guardband: guard}
}

// MaxGuardbandForOverhead returns the largest guardband that keeps
// switching overhead below the given fraction for packets of size bytes:
// the §2.2 analysis (576 B at 50 Gb/s with <10% overhead → 9.2 ns target,
// rounded to the 10 ns design point).
func MaxGuardbandForOverhead(rate simtime.Rate, bytes int, overhead float64) simtime.Duration {
	dataTime := rate.TimeToSend(bytes)
	return simtime.Duration(float64(dataTime) * overhead / (1 - overhead))
}

// PRBS is a pseudo-random binary sequence generator (PRBS31,
// x^31 + x^28 + 1), the standard test pattern the prototype FPGAs exchange
// to measure bit error rate.
type PRBS struct {
	state uint32
}

// NewPRBS returns a generator with the given non-zero seed.
func NewPRBS(seed uint32) *PRBS {
	if seed == 0 {
		seed = 1
	}
	return &PRBS{state: seed & 0x7fffffff}
}

// Reset re-seeds the generator in place, allowing one PRBS to be reused
// across independently seeded bursts (the wire testbed seeds each cell's
// pattern from (src, dst, seq) so that a lost cell never desynchronizes
// the checker) without allocating per burst.
func (p *PRBS) Reset(seed uint32) {
	if seed == 0 {
		seed = 1
	}
	p.state = seed & 0x7fffffff
}

// NextBit returns the next bit of the sequence.
func (p *PRBS) NextBit() uint32 {
	bit := ((p.state >> 30) ^ (p.state >> 27)) & 1
	p.state = ((p.state << 1) | bit) & 0x7fffffff
	return bit
}

// next28 advances the LFSR 28 steps at once. The register is linear
// and the feedback taps sit at bits 30 and 27, so for 28 consecutive
// steps every feedback bit is a function of the *original* state alone:
// bit k (k < 28) is s[30-k] ^ s[27-k]. Packing k = 0..27 MSB-first gives
// the word ((s>>3) ^ s) & 0x0fffffff, and because each generated bit is
// also the bit shifted into the register, the new state is simply
// (s<<28 | w) masked to 31 bits. Step 28 would read bit 27 of a state
// that already holds generated bit 0, so 28 is the limit.
func next28(s uint32) (uint32, uint32) {
	w := ((s >> 3) ^ s) & 0x0fffffff
	return w, ((s << 28) | w) & 0x7fffffff
}

// next56 advances the LFSR 56 steps: two 28-bit words, MSB-first, in the
// top seven bytes of the result (its low byte is zero), so one 8-byte
// big-endian store or load covers seven sequence bytes.
func next56(s uint32) (uint64, uint32) {
	hi, s := next28(s)
	lo, s := next28(s)
	return (uint64(hi)<<28 | uint64(lo)) << 8, s
}

// nextByte advances the LFSR eight steps: next28's argument for the top
// eight bits, ((s>>23) ^ (s>>20)) & 0xff. Fill and CountErrors use it
// for the fewer than eight bytes left after their 7-byte steps.
func nextByte(s uint32) (byte, uint32) {
	b := byte((s >> 23) ^ (s >> 20))
	return b, ((s << 8) | uint32(b)) & 0x7fffffff
}

// Fill fills buf with sequence bytes, seven at a time: each step stores
// eight bytes, and the next step overwrites the eighth. Bit-identical to
// NextBit (pinned by TestPRBSFillMatchesBitwise and FuzzPRBS).
func (p *PRBS) Fill(buf []byte) {
	s := p.state
	i := 0
	for ; i+8 <= len(buf); i += 7 {
		var w uint64
		w, s = next56(s)
		binary.BigEndian.PutUint64(buf[i:], w)
	}
	for ; i < len(buf); i++ {
		buf[i], s = nextByte(s)
	}
	p.state = s
}

// CountErrors compares received data against the expected sequence
// continuation and returns the number of differing bits. It generates
// the expected bytes on the fly, seven at a time against one 8-byte load
// (the eighth byte masked off) — no scratch buffer, no allocation — so
// the receive hot path of the wire testbed can call it per cell.
func (p *PRBS) CountErrors(got []byte) int {
	s := p.state
	errs := 0
	i := 0
	for ; i+8 <= len(got); i += 7 {
		var want uint64
		want, s = next56(s)
		errs += bits.OnesCount64((binary.BigEndian.Uint64(got[i:]) ^ want) &^ 0xff)
	}
	for ; i < len(got); i++ {
		var want byte
		want, s = nextByte(s)
		errs += bits.OnesCount8(got[i] ^ want)
	}
	p.state = s
	return errs
}

// WaveformSample is one point of a synthesized intensity trace.
type WaveformSample struct {
	T         simtime.Duration // time since trace start
	Intensity float64          // normalized 0..1
}

// BurstWaveform synthesizes the Fig. 8c trace: consecutive cell slots with
// intensity high during data and low during the guardband.
func BurstWaveform(s Slot, slots int, step simtime.Duration) []WaveformSample {
	if slots <= 0 {
		panic("phy: need at least one slot")
	}
	var out []WaveformSample
	slotLen := s.Duration()
	for t := simtime.Duration(0); t < simtime.Duration(slots)*slotLen; t += step {
		within := t % slotLen
		inten := 1.0
		if within >= s.DataTime() {
			inten = 0.0
		}
		out = append(out, WaveformSample{T: t, Intensity: inten})
	}
	return out
}
