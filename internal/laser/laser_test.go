package laser

import (
	"testing"
	"testing/quick"

	"sirius/internal/optics"
	"sirius/internal/simtime"
)

// Ideal is a zero-latency tuner with the given channel count, a fixture
// for the measurement helpers.
type Ideal struct{ NumChannels int }

// TuneTime implements Tuner.
func (l Ideal) TuneTime(from, to optics.Wavelength) simtime.Duration {
	checkRange(l.NumChannels, from, to)
	return 0
}

// Channels implements Tuner.
func (l Ideal) Channels() int { return l.NumChannels }

func TestIdeal(t *testing.T) {
	l := Ideal{NumChannels: 8}
	if l.TuneTime(0, 7) != 0 {
		t.Error("ideal laser has non-zero tune time")
	}
	if l.Channels() != 8 {
		t.Error("wrong channel count")
	}
}

func TestDSDBRStock(t *testing.T) {
	l := NewDSDBR()
	if l.Channels() != 112 {
		t.Fatalf("channels = %d, want 112", l.Channels())
	}
	if got := l.TuneTime(0, 50); got != 10*simtime.Millisecond {
		t.Errorf("stock DSDBR tune = %v, want 10ms", got)
	}
	if got := l.TuneTime(5, 5); got != 0 {
		t.Errorf("same-wavelength tune = %v, want 0", got)
	}
}

func TestDampedCalibration(t *testing.T) {
	// §3.2: median 14 ns and worst-case 92 ns across all 12,432 ordered
	// pairs of 112 wavelengths.
	l := NewDampedDSDBR()
	s := MeasurePairs(l)
	if s.Pairs != 12432 {
		t.Fatalf("pairs = %d, want 12432 (112*111)", s.Pairs)
	}
	if s.Median < 12*simtime.Nanosecond || s.Median > 16*simtime.Nanosecond {
		t.Errorf("median = %v, want ~14ns", s.Median)
	}
	if s.Worst < 85*simtime.Nanosecond || s.Worst > 95*simtime.Nanosecond {
		t.Errorf("worst = %v, want ~92ns", s.Worst)
	}
}

func TestDampedGrowsWithDistance(t *testing.T) {
	// The fundamental coupling problem: farther wavelengths need a larger
	// current step and settle slower.
	l := NewDampedDSDBR()
	near := l.TuneTime(50, 51)
	far := l.TuneTime(0, 111)
	if far <= near*2 {
		t.Errorf("far hop (%v) should be much slower than near hop (%v)", far, near)
	}
}

func TestDampedDeterministic(t *testing.T) {
	l := NewDampedDSDBR()
	for i := 0; i < 10; i++ {
		if l.TuneTime(3, 77) != l.TuneTime(3, 77) {
			t.Fatal("tune time not deterministic")
		}
	}
}

func TestDampingBenefit(t *testing.T) {
	damped := NewDampedDSDBR()
	undamped := NewDampedDSDBR()
	undamped.Damping = false
	d := damped.TuneTime(0, 60)
	u := undamped.TuneTime(0, 60)
	if u < 10*d {
		t.Errorf("undamped (%v) should be >10x slower than damped (%v)", u, d)
	}
}

func TestSOABankCalibration(t *testing.T) {
	// §6: 19 SOAs, worst-case on 527 ps and off 912 ps.
	bank := SOABank(19, 1)
	var maxRise, maxFall simtime.Duration
	for _, s := range bank {
		if s.Rise <= 0 || s.Fall <= 0 {
			t.Fatalf("non-positive SOA time: %+v", s)
		}
		if s.Rise > maxRise {
			maxRise = s.Rise
		}
		if s.Fall > maxFall {
			maxFall = s.Fall
		}
	}
	if maxRise != 527*simtime.Picosecond {
		t.Errorf("worst rise = %v, want 527ps", maxRise)
	}
	if maxFall != 912*simtime.Picosecond {
		t.Errorf("worst fall = %v, want 912ps", maxFall)
	}
}

func TestFixedBankSubNanosecond(t *testing.T) {
	l := NewFixedBank(19, 1)
	if l.Channels() != 19 {
		t.Fatalf("channels = %d, want 19", l.Channels())
	}
	// Headline claim: tuning latency below 912 ps, for every pair.
	if w := l.WorstCase(); w > 912*simtime.Picosecond {
		t.Errorf("worst case = %v, want <= 912ps", w)
	}
	if l.TuneTime(4, 4) != 0 {
		t.Error("same-wavelength tune should be 0")
	}
}

func TestFixedBankDistanceIndependence(t *testing.T) {
	// Fig. 8b: adjacent and distant switching take (nearly) the same time —
	// the latency depends only on which SOAs toggle, not on the spectral
	// distance.
	l := NewFixedBank(19, 1)
	f := func(a, b, c uint8) bool {
		from := optics.Wavelength(a % 19)
		to1 := optics.Wavelength(b % 19)
		to2 := optics.Wavelength(c % 19)
		if from == to1 || from == to2 {
			return true
		}
		// Both transitions from the same source share the same fall time;
		// any difference comes only from the destination SOA rise times,
		// which are all sub-ns. So both are < 912 ps regardless of span.
		return l.TuneTime(from, to1) <= 912*simtime.Picosecond &&
			l.TuneTime(from, to2) <= 912*simtime.Picosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedBankSymmetricPair(t *testing.T) {
	// TuneTime(i,j) uses fall(i), rise(j); TuneTime(j,i) uses fall(j),
	// rise(i) — generally different, but both bounded by the bank extremes.
	l := NewFixedBank(19, 7)
	stats := MeasurePairs(l)
	if stats.Worst > 912*simtime.Picosecond {
		t.Errorf("worst pair = %v > 912ps", stats.Worst)
	}
	if stats.Median <= 0 {
		t.Error("median should be positive")
	}
}

func TestTunableBankHidesTuning(t *testing.T) {
	b := NewTunableBank(2)
	// With unbounded lookahead the visible latency is only the SOA switch.
	vis := b.TuneTime(0, 111)
	if vis > simtime.Nanosecond {
		t.Errorf("pipelined visible latency = %v, want sub-ns", vis)
	}
	// §4.5: with a 100 ns slot and worst-case underlying tuning < 100 ns,
	// a bank of two active lasers hides tuning entirely.
	vis = b.TuneTimeWithLookahead(0, 111, 100*simtime.Nanosecond)
	if vis > simtime.Nanosecond {
		t.Errorf("100ns-lookahead latency = %v, want sub-ns", vis)
	}
}

func TestTunableBankInsufficientLookahead(t *testing.T) {
	b := NewTunableBank(2)
	// With only 10 ns of lookahead a 92 ns tune cannot be hidden.
	vis := b.TuneTimeWithLookahead(0, 111, 10*simtime.Nanosecond)
	if vis < 10*simtime.Nanosecond {
		t.Errorf("visible latency = %v, want the unhidden residue", vis)
	}
}

func TestTunableBankDegenerate(t *testing.T) {
	b := NewTunableBank(3)
	b.Spares = 2 // only one active laser: no pipelining possible
	vis := b.TuneTimeWithLookahead(0, 111, 100*simtime.Nanosecond)
	if vis < 50*simtime.Nanosecond {
		t.Errorf("single-laser bank should expose full tuning, got %v", vis)
	}
}

func TestComb(t *testing.T) {
	c := NewComb(100, 3)
	if c.Channels() != 100 {
		t.Fatalf("channels = %d, want 100", c.Channels())
	}
	if w := c.WorstCase(); w > 912*simtime.Picosecond {
		t.Errorf("comb worst case = %v, want <= 912ps", w)
	}
}

func TestMeasurePairsSmall(t *testing.T) {
	s := MeasurePairs(Ideal{NumChannels: 5})
	if s.Pairs != 20 {
		t.Errorf("pairs = %d, want 20", s.Pairs)
	}
	if s.Worst != 0 || s.Median != 0 || s.Mean != 0 {
		t.Error("ideal laser stats should be zero")
	}
}

func TestSortDurations(t *testing.T) {
	f := func(raw []uint32) bool {
		ds := make([]simtime.Duration, len(raw))
		for i, v := range raw {
			ds[i] = simtime.Duration(v)
		}
		sortDurations(ds)
		for i := 1; i < len(ds); i++ {
			if ds[i-1] > ds[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWavelengthRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range wavelength did not panic")
		}
	}()
	NewFixedBank(19, 1).TuneTime(0, 19)
}
