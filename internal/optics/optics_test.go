package optics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAWGRCyclicRouting(t *testing.T) {
	// Fig. 3a: a 4-port AWGR routes wavelength j on input i to output
	// (i+j) mod 4.
	a := NewAWGR(4)
	cases := []struct{ in, w, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 2}, {0, 3, 3},
		{1, 0, 1}, {1, 3, 0},
		{3, 3, 2},
	}
	for _, c := range cases {
		if got := a.Route(c.in, Wavelength(c.w)); got != c.want {
			t.Errorf("Route(%d, %d) = %d, want %d", c.in, c.w, got, c.want)
		}
	}
}

func TestAWGRPermutationProperty(t *testing.T) {
	// For a fixed wavelength, the input->output map is a permutation
	// (no two inputs collide on one output): the physical basis of the
	// contention-free schedule.
	f := func(ports uint8, w uint8) bool {
		p := int(ports%100) + 1
		a := NewAWGR(p)
		seen := make([]bool, p)
		for in := 0; in < p; in++ {
			out := a.Route(in, Wavelength(w))
			if seen[out] {
				return false
			}
			seen[out] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAWGRAllToAll(t *testing.T) {
	// Every input can reach every output with some wavelength < ports.
	a := NewAWGR(16)
	for in := 0; in < 16; in++ {
		reached := make([]bool, 16)
		for w := 0; w < 16; w++ {
			reached[a.Route(in, Wavelength(w))] = true
		}
		for out, ok := range reached {
			if !ok {
				t.Fatalf("input %d cannot reach output %d", in, out)
			}
		}
	}
}

func TestGridWavelengths(t *testing.T) {
	g := DefaultGrid()
	if g.Channels != 112 {
		t.Fatalf("channels = %d, want 112", g.Channels)
	}
	// 50 GHz spacing at 1550 nm is ~0.4 nm between adjacent channels.
	d := g.NM(1) - g.NM(0)
	if d < 0.35 || d > 0.45 {
		t.Errorf("adjacent spacing = %v nm, want ~0.4", d)
	}
	// The grid spans the C-band: ~1530-1570 nm.
	lo, hi := g.NM(0), g.NM(Wavelength(g.Channels-1))
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo < 1500 || hi > 1600 {
		t.Errorf("grid spans [%v, %v] nm, want inside C-band region", lo, hi)
	}
	// Fig. 8b's channels exist on the grid.
	w1 := g.Nearest(1552.524)
	w2 := g.Nearest(1552.926)
	if w2-w1 != 1 {
		t.Errorf("1552.524 and 1552.926 nm should be adjacent channels, got %d and %d", w1, w2)
	}
}

func TestDBmConversions(t *testing.T) {
	if got := DBmToMilliwatts(0); math.Abs(got-1) > 1e-12 {
		t.Errorf("0 dBm = %v mW, want 1", got)
	}
	if got := DBmToMilliwatts(-8); math.Abs(got-0.158) > 0.01 {
		t.Errorf("-8 dBm = %v mW, want ~0.158 (paper: 0.16 mW)", got)
	}
	if got := DBmToMilliwatts(16); math.Abs(got-39.8) > 0.5 {
		t.Errorf("16 dBm = %v mW, want ~40 (paper)", got)
	}
	if got := DBmToMilliwatts(7); math.Abs(got-5.01) > 0.1 {
		t.Errorf("7 dBm = %v mW, want ~5 (paper)", got)
	}
}

func TestLinkBudgetPaperNumbers(t *testing.T) {
	b := DefaultLinkBudget()
	// §4.5: losses of 6+7 dB plus 2 dB margin against -8 dBm sensitivity
	// require 7 dBm of laser power.
	if got := b.RequiredLaserDBm(); math.Abs(got-7) > 1e-9 {
		t.Errorf("required laser power = %v dBm, want 7", got)
	}
	if !b.Closes() {
		t.Error("16 dBm budget should close")
	}
	// A 16 dBm laser supports sharing across 8 transceivers (paper).
	if got := b.MaxSplit(); got != 8 {
		t.Errorf("MaxSplit = %d, want 8", got)
	}
}

func TestLinkBudgetFailsBelowSensitivity(t *testing.T) {
	b := DefaultLinkBudget()
	b.LaserOutputDBm = 6.9
	if b.Closes() {
		t.Error("budget closed with insufficient laser power")
	}
}

func TestBERWaterfall(t *testing.T) {
	m := DefaultBERModel()
	// At sensitivity, BER equals the FEC threshold.
	at := m.BER(-8, 0)
	if math.Abs(math.Log10(at)-math.Log10(m.FECThreshold)) > 0.05 {
		t.Errorf("BER at sensitivity = %v, want ~%v", at, m.FECThreshold)
	}
	// Monotone decreasing with power.
	prev := 1.0
	for p := -12.0; p <= -2; p += 0.5 {
		b := m.BER(p, 0)
		if b > prev {
			t.Fatalf("BER not monotone at %v dBm: %v > %v", p, b, prev)
		}
		prev = b
	}
	// Error-free post-FEC at and above -8 dBm; not below -9 dBm.
	if m.BER(-8, 0) > m.FECThreshold {
		t.Error("not error-free at -8 dBm")
	}
	if m.BER(-10, 0) <= m.FECThreshold {
		t.Error("error-free at -10 dBm, should not be")
	}
}

func TestBERChannelPenalty(t *testing.T) {
	m := DefaultBERModel()
	m.ChannelPenaltyDB = map[Wavelength]float64{3: 1.0}
	if m.BER(-8, 3) <= m.BER(-8, 0) {
		t.Error("penalized channel should have higher BER")
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewAWGR(0)", func() { NewAWGR(0) })
	mustPanic("bad input port", func() { NewAWGR(4).Route(4, 0) })
	mustPanic("negative wavelength", func() { NewAWGR(4).Route(0, -1) })
	mustPanic("grid out of range", func() { DefaultGrid().NM(-1) })
}
