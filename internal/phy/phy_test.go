package phy

import (
	"bytes"
	"math/bits"
	"testing"
	"testing/quick"

	"sirius/internal/rng"
	"sirius/internal/simtime"
)

func TestGuardbandBudgets(t *testing.T) {
	v1 := SiriusV1Budget()
	// §6: Sirius v1 uses a 100 ns guardband for the 92 ns laser plus
	// preamble.
	if got := v1.Total(); got != 100*simtime.Nanosecond {
		t.Errorf("v1 guardband = %v, want 100ns", got)
	}
	v2 := SiriusV2Budget()
	// §6: Sirius v2 achieves 3.84 ns end-to-end reconfiguration.
	if got := v2.Total(); got != 3840*simtime.Picosecond {
		t.Errorf("v2 guardband = %v, want 3.84ns", got)
	}
	// Both meet the paper's 10 ns target only for v2.
	if v2.Total() >= 10*simtime.Nanosecond {
		t.Error("v2 should beat the 10ns target")
	}
	if v1.Total() < 10*simtime.Nanosecond {
		t.Error("v1 should not meet the 10ns target")
	}
}

func TestDefaultSlot(t *testing.T) {
	s := DefaultSlot()
	// 562 B at 50 Gb/s ≈ 89.92 ns data; +10 ns guard ≈ 100 ns slot.
	if d := s.DataTime(); d < 89*simtime.Nanosecond || d > 91*simtime.Nanosecond {
		t.Errorf("data time = %v, want ~90ns", d)
	}
	if d := s.Duration(); d < 99*simtime.Nanosecond || d > 101*simtime.Nanosecond {
		t.Errorf("slot = %v, want ~100ns", d)
	}
	if o := s.Overhead(); o < 0.09 || o > 0.11 {
		t.Errorf("overhead = %v, want ~0.10", o)
	}
}

func TestSlotForGuardband(t *testing.T) {
	// Fig. 11 methodology: guardband always 10% of the slot.
	for _, g := range []simtime.Duration{
		1 * simtime.Nanosecond, 5 * simtime.Nanosecond, 10 * simtime.Nanosecond,
		20 * simtime.Nanosecond, 40 * simtime.Nanosecond,
	} {
		s := SlotForGuardband(50*simtime.Gbps, g, 0.10)
		if o := s.Overhead(); o < 0.08 || o > 0.12 {
			t.Errorf("guard %v: overhead = %v, want ~0.10", g, o)
		}
		if s.Guardband != g {
			t.Errorf("guard %v: got %v", g, s.Guardband)
		}
	}
	// 10 ns at 10% reproduces the default 562-byte cell.
	s := SlotForGuardband(50*simtime.Gbps, 10*simtime.Nanosecond, 0.10)
	if s.CellBytes < 555 || s.CellBytes > 565 {
		t.Errorf("cell = %dB, want ~562", s.CellBytes)
	}
}

func TestSlotForGuardbandPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad fraction did not panic")
		}
	}()
	SlotForGuardband(50*simtime.Gbps, simtime.Nanosecond, 1.5)
}

func TestMaxGuardbandForOverhead(t *testing.T) {
	// §2.2: 576 B packets at 50 Gb/s with <10% switching overhead need a
	// guardband under ~10.24 ns (the paper quotes the 92 ns data time and
	// a 9.2 ns bound using guard/data rather than guard/total; both land
	// at the same ~10 ns design target).
	g := MaxGuardbandForOverhead(50*simtime.Gbps, 576, 0.10)
	if g < 9*simtime.Nanosecond || g > 11*simtime.Nanosecond {
		t.Errorf("max guardband = %v, want ~10ns", g)
	}
}

func TestPRBSProperties(t *testing.T) {
	p := NewPRBS(0xBEEF)
	// Roughly balanced ones/zeros.
	ones := 0
	const n = 100000
	for i := 0; i < n; i++ {
		ones += int(p.NextBit())
	}
	if ones < n*45/100 || ones > n*55/100 {
		t.Errorf("ones = %d/%d, want ~50%%", ones, n)
	}
}

func TestPRBSZeroSeed(t *testing.T) {
	p := NewPRBS(0)
	// Must not get stuck at zero.
	sum := uint32(0)
	for i := 0; i < 1000; i++ {
		sum += p.NextBit()
	}
	if sum == 0 {
		t.Error("zero-seed PRBS produced all zeros")
	}
}

func TestPRBSErrorCounting(t *testing.T) {
	tx := NewPRBS(1)
	rx := NewPRBS(1)
	buf := make([]byte, 256)
	tx.Fill(buf)
	if errs := rx.CountErrors(buf); errs != 0 {
		t.Errorf("clean channel shows %d errors", errs)
	}
	// Flip 3 bits.
	tx2 := NewPRBS(1)
	rx2 := NewPRBS(1)
	buf2 := make([]byte, 256)
	tx2.Fill(buf2)
	buf2[0] ^= 0x01
	buf2[100] ^= 0x80
	buf2[200] ^= 0x10
	if errs := rx2.CountErrors(buf2); errs != 3 {
		t.Errorf("3 flipped bits counted as %d", errs)
	}
}

// refPRBS is the reference: n bytes of the NextBit recurrence from
// state s, MSB first, and the state after them.
func refPRBS(s uint32, n int) ([]byte, uint32) {
	p := &PRBS{state: s}
	out := make([]byte, n)
	for i := range out {
		for j := 0; j < 8; j++ {
			out[i] = out[i]<<1 | byte(p.NextBit())
		}
	}
	return out, p.state
}

// checkPRBS pins Fill and CountErrors from state s to the reference over
// n bytes, and CountErrors on a copy with the given bit positions flipped
// (a position flipped twice cancels) to the bits that differ. It returns
// the state after the n bytes.
func checkPRBS(t *testing.T, s uint32, n int, flips []int) uint32 {
	t.Helper()
	want, wantState := refPRBS(s, n)
	fast := &PRBS{state: s}
	got := make([]byte, n)
	fast.Fill(got)
	if !bytes.Equal(got, want) {
		t.Fatalf("state %#x len %d: Fill diverges from NextBit reference", s, n)
	}
	if fast.state != wantState {
		t.Fatalf("state %#x len %d: Fill leaves state %#x, want %#x", s, n, fast.state, wantState)
	}
	for _, pos := range flips {
		got[pos>>3] ^= 0x80 >> uint(pos&7)
	}
	diff := 0
	for i := range got {
		diff += bits.OnesCount8(got[i] ^ want[i])
	}
	chk := &PRBS{state: s}
	if errs := chk.CountErrors(got); errs != diff {
		t.Fatalf("state %#x len %d: CountErrors = %d with %d bits flipped", s, n, errs, diff)
	}
	if chk.state != wantState {
		t.Fatalf("state %#x len %d: CountErrors leaves state %#x, want %#x", s, n, chk.state, wantState)
	}
	return wantState
}

func TestPRBSFillMatchesBitwise(t *testing.T) {
	// Fill/CountErrors take seven bytes per step and finish byte-wise;
	// pin both bit-identical to the reference NextBit recurrence across
	// seeds (including the degenerate all-zero / all-one states) at every
	// length that leaves a different tail, the stream continuing from one
	// length to the next. Each length is also checked with seeded random
	// bit flips, which CountErrors must count exactly.
	seeds := []uint32{0, 1, 0xBEEF, 0x7fffffff, 0x40000000, 0x12345678}
	lengths := []int{550, 562}
	for n := 0; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	r := rng.New(1)
	for _, seed := range seeds {
		s := NewPRBS(seed).state
		for _, n := range lengths {
			var flips []int
			if n > 0 {
				flips = r.Perm(8 * n)[:r.Intn(min(8*n, 20))+1]
			}
			s = checkPRBS(t, s, n, flips)
		}
	}
}

// FuzzPRBS pins Fill and CountErrors to the NextBit reference from any
// seed, at any length up to 2 KiB, with flips naming bit positions (two
// bytes each) to corrupt before counting.
func FuzzPRBS(f *testing.F) {
	f.Add(uint32(1), uint16(562), []byte{0, 0, 1, 0x2f})
	f.Add(uint32(0x7fffffff), uint16(7), []byte{})
	f.Add(uint32(0), uint16(15), []byte{0, 55, 0, 56})
	f.Fuzz(func(t *testing.T, seed uint32, length uint16, flips []byte) {
		n := int(length) % (2<<10 + 1)
		var pos []int
		for i := 0; n > 0 && i+1 < len(flips); i += 2 {
			pos = append(pos, (int(flips[i])<<8|int(flips[i+1]))%(8*n))
		}
		checkPRBS(t, NewPRBS(seed).state, n, pos)
	})
}

func TestPRBSCountErrorsAllocFree(t *testing.T) {
	p := NewPRBS(7)
	buf := make([]byte, 562)
	p.Fill(buf)
	allocs := testing.AllocsPerRun(100, func() {
		p.CountErrors(buf)
	})
	if allocs != 0 {
		t.Errorf("CountErrors allocates %.1f times per call, want 0", allocs)
	}
}

func TestPRBSFillAllocFree(t *testing.T) {
	p := NewPRBS(7)
	buf := make([]byte, 562)
	allocs := testing.AllocsPerRun(100, func() {
		p.Fill(buf)
	})
	if allocs != 0 {
		t.Errorf("Fill allocates %.1f times per call, want 0", allocs)
	}
}

func TestPRBSReset(t *testing.T) {
	a := NewPRBS(0x1234)
	b := NewPRBS(0x9999)
	buf := make([]byte, 64)
	b.Fill(buf) // advance b arbitrarily
	b.Reset(0x1234)
	want := make([]byte, 64)
	a.Fill(want)
	got := make([]byte, 64)
	b.Fill(got)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("Reset stream diverges at byte %d", i)
		}
	}
	b.Reset(0)
	sum := uint32(0)
	for i := 0; i < 100; i++ {
		sum += b.NextBit()
	}
	if sum == 0 {
		t.Error("Reset(0) stuck at zero state")
	}
}

func TestPRBSStreamsIndependent(t *testing.T) {
	f := func(seed uint32, flips uint8) bool {
		tx := NewPRBS(seed)
		rx := NewPRBS(seed)
		buf := make([]byte, 64)
		tx.Fill(buf)
		// Flip `flips` distinct bits.
		n := int(flips) % 64
		for i := 0; i < n; i++ {
			buf[i] ^= 1
		}
		return rx.CountErrors(buf) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBurstWaveform(t *testing.T) {
	s := DefaultSlot()
	trace := BurstWaveform(s, 3, simtime.Nanosecond)
	if len(trace) == 0 {
		t.Fatal("empty trace")
	}
	// Fraction of low samples ≈ guardband overhead.
	low := 0
	for _, w := range trace {
		if w.Intensity == 0 {
			low++
		}
	}
	frac := float64(low) / float64(len(trace))
	if frac < 0.05 || frac > 0.15 {
		t.Errorf("low fraction = %v, want ~0.10", frac)
	}
}

func TestBurstWaveformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero slots did not panic")
		}
	}()
	BurstWaveform(DefaultSlot(), 0, simtime.Nanosecond)
}
