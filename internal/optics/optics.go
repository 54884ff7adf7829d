// Package optics models the passive optical substrate of Sirius: the
// C-band wavelength grid, the arrayed waveguide grating router (AWGR) that
// routes light cyclically by wavelength, optical power arithmetic, the
// insertion-loss link budget of §4.5, and the BER-vs-received-power
// waterfall used for the Fig. 8d reproduction.
package optics

import (
	"fmt"
	"math"
)

// Wavelength indexes a channel on the ITU C-band grid. Wavelength 0 is the
// lowest-frequency channel in the configured grid.
type Wavelength int

// Grid describes the optical channel plan. The paper uses ~100 wavelengths
// in the C-band with 50 GHz spacing around 1550 nm.
type Grid struct {
	Channels  int     // number of wavelengths
	SpacingHz float64 // channel spacing in Hz (50 GHz default)
	CenterNM  float64 // wavelength (nm) of the middle channel
}

// DefaultGrid is the paper's channel plan: 112 channels at 50 GHz spacing
// around 1550 nm (the DSDBR prototype tunes across 112 wavelengths).
func DefaultGrid() Grid {
	return Grid{Channels: 112, SpacingHz: 50e9, CenterNM: 1550}
}

const lightSpeed = 299_792_458.0 // m/s

// NM returns the physical wavelength of channel w in nanometres.
// Channels are evenly spaced in frequency, as on the real ITU grid.
func (g Grid) NM(w Wavelength) float64 {
	if w < 0 || int(w) >= g.Channels {
		panic(fmt.Sprintf("optics: wavelength %d outside grid of %d", w, g.Channels))
	}
	centerHz := lightSpeed / (g.CenterNM * 1e-9)
	// Channel index relative to the centre channel.
	rel := float64(w) - float64(g.Channels-1)/2
	hz := centerHz - rel*g.SpacingHz // higher channel index = longer wavelength
	return lightSpeed / hz * 1e9
}

// Nearest returns the grid channel whose physical wavelength is closest to
// nm.
func (g Grid) Nearest(nm float64) Wavelength {
	best, bestDiff := Wavelength(0), math.Inf(1)
	for w := 0; w < g.Channels; w++ {
		d := math.Abs(g.NM(Wavelength(w)) - nm)
		if d < bestDiff {
			best, bestDiff = Wavelength(w), d
		}
	}
	return best
}

// AWGR is an arrayed waveguide grating router: a passive NxN device that
// routes each wavelength on each input port to a fixed output port, in the
// cyclic pattern of Fig. 3a: wavelength j arriving on input i exits on
// output (i + j) mod N. It consumes no power, keeps no state, and performs
// no retiming — properties the time-synchronization design relies on.
type AWGR struct {
	ports int
}

// NewAWGR returns a grating with the given port count. The paper
// fabricates 100-port gratings.
func NewAWGR(ports int) *AWGR {
	if ports <= 0 {
		panic("optics: AWGR needs at least one port")
	}
	return &AWGR{ports: ports}
}

// Route returns the output port for light of wavelength w entering input
// port in. Wavelengths beyond the port count wrap cyclically (free spectral
// range reuse).
func (a *AWGR) Route(in int, w Wavelength) int {
	if in < 0 || in >= a.ports {
		panic(fmt.Sprintf("optics: input port %d outside [0,%d)", in, a.ports))
	}
	if w < 0 {
		panic("optics: negative wavelength")
	}
	return (in + int(w)) % a.ports
}

// DBmToMilliwatts converts optical power in dBm to milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return math.Pow(10, dbm/10) }

// LinkBudget captures the §4.5 end-to-end optical power accounting.
type LinkBudget struct {
	LaserOutputDBm    float64 // laser output power (paper: 16 dBm available, 7 dBm required)
	SplitWays         int     // laser shared across this many transceivers
	GratingLossDB     float64 // AWGR insertion loss (6 dB for 100 ports)
	CouplingModLossDB float64 // fiber coupling + modulator losses (7 dB)
	MarginDB          float64 // engineering margin (2 dB)
	ReceiverSensDBm   float64 // receiver sensitivity for error-free post-FEC (-8 dBm)
}

// DefaultLinkBudget returns the paper's §4.5 numbers.
func DefaultLinkBudget() LinkBudget {
	return LinkBudget{
		LaserOutputDBm:    16,
		SplitWays:         1,
		GratingLossDB:     6,
		CouplingModLossDB: 7,
		MarginDB:          2,
		ReceiverSensDBm:   -8,
	}
}

// splitLossDB is the power division penalty of sharing one laser across n
// transceivers: 10*log10(n).
func splitLossDB(n int) float64 {
	if n < 1 {
		panic("optics: split ways must be >= 1")
	}
	return 10 * math.Log10(float64(n))
}

// ReceivedDBm returns the power arriving at the receiver.
func (b LinkBudget) ReceivedDBm() float64 {
	return b.LaserOutputDBm - splitLossDB(b.SplitWays) - b.GratingLossDB - b.CouplingModLossDB
}

// budgetToleranceDB absorbs nearest-dB rounding in the paper's published
// budget figures (e.g. 16 dBm is quoted as 40 mW, an 8-way split as 9 dB).
const budgetToleranceDB = 0.05

// Closes reports whether the link budget closes: received power, minus the
// margin, meets the receiver sensitivity.
func (b LinkBudget) Closes() bool {
	return b.ReceivedDBm()-b.MarginDB >= b.ReceiverSensDBm-budgetToleranceDB
}

// MaxSplit returns the largest number of transceivers one laser can feed
// while the budget still closes. The paper's numbers give 8.
func (b LinkBudget) MaxSplit() int {
	n := 1
	for {
		b.SplitWays = n + 1
		if !b.Closes() {
			return n
		}
		n++
		if n > 1<<20 {
			return n // unbounded budget; avoid spinning forever
		}
	}
}

// RequiredLaserDBm returns the minimum laser output for the budget to close
// with the current split. With the paper's losses and no split: 7 dBm.
func (b LinkBudget) RequiredLaserDBm() float64 {
	return b.ReceiverSensDBm + b.MarginDB + b.GratingLossDB + b.CouplingModLossDB + splitLossDB(b.SplitWays)
}

// BER returns the pre-FEC bit error rate at the given received power for an
// NRZ/PAM receiver modeled as a Gaussian channel: BER = 0.5*erfc(Q/sqrt2)
// with Q proportional to the received field amplitude. The curve is
// calibrated so that the paper's receiver reaches the FEC threshold
// (2e-4 BER, standard KR4 RS-FEC limit region) at sensitivity -8 dBm, and
// produces the waterfall shape of Fig. 8d.
type BERModel struct {
	SensitivityDBm float64 // power at which BER = FECThreshold
	FECThreshold   float64 // pre-FEC BER correctable to error-free
	// ChannelPenaltyDB is a per-wavelength implementation penalty; Fig. 8d's
	// four channels sit within ~1 dB of each other.
	ChannelPenaltyDB map[Wavelength]float64
}

// DefaultBERModel returns a model matching §6: error-free post-FEC at
// -8 dBm received power.
func DefaultBERModel() BERModel {
	return BERModel{SensitivityDBm: -8, FECThreshold: 2e-4}
}

// qAtThreshold is the Gaussian Q factor giving BER = threshold.
func qFromBER(ber float64) float64 {
	// Invert 0.5*erfc(q/sqrt2) numerically with bisection; monotone.
	lo, hi := 0.0, 40.0
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		if 0.5*math.Erfc(mid/math.Sqrt2) > ber {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BER returns the pre-FEC bit error rate at receivedDBm on wavelength w.
func (m BERModel) BER(receivedDBm float64, w Wavelength) float64 {
	penalty := 0.0
	if m.ChannelPenaltyDB != nil {
		penalty = m.ChannelPenaltyDB[w]
	}
	qThresh := qFromBER(m.FECThreshold)
	// In a thermal-noise-limited receiver Q scales linearly with received
	// optical power (mW).
	q := qThresh * DBmToMilliwatts(receivedDBm-penalty) / DBmToMilliwatts(m.SensitivityDBm)
	ber := 0.5 * math.Erfc(q/math.Sqrt2)
	if ber < 1e-300 {
		ber = 1e-300
	}
	return ber
}
