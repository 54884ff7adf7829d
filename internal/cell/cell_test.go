package cell

import (
	"bytes"
	"testing"
	"testing/quick"

	"sirius/internal/rng"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := Cell{
		Kind:    KindData,
		Flags:   FlagHello,
		Src:     12,
		Dst:     107,
		Flow:    0xDEADBEEF,
		Seq:     42,
		Payload: []byte("hello sirius"),
	}
	buf := c.Encode(nil)
	got, n, err := DecodeAlias(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d of %d bytes", n, len(buf))
	}
	if got.Kind != c.Kind || got.Flags != c.Flags || got.Src != c.Src ||
		got.Dst != c.Dst || got.Flow != c.Flow || got.Seq != c.Seq ||
		!bytes.Equal(got.Payload, c.Payload) {
		t.Errorf("round trip mismatch: %+v != %+v", got, c)
	}
	if got.Flags&FlagHello == 0 {
		t.Error("Hello flag lost")
	}
}

func TestSuspicionPiggyback(t *testing.T) {
	c := Cell{Kind: KindData, Src: 2, Dst: 3, Seq: 99, Payload: []byte{1}}
	if flags, _, _ := c.Announcement(); flags != 0 {
		t.Error("fresh cell already carries an announcement")
	}
	c.SetAnnouncement(FlagSuspect, 7, 123)
	buf := c.Encode(nil)
	got, _, err := DecodeAlias(buf)
	if err != nil {
		t.Fatal(err)
	}
	flags, peer, sw := got.Announcement()
	if flags != FlagSuspect || peer != 7 || sw != 123 {
		t.Errorf("suspicion = (%#x,%d,%d), want (%#x,7,123)", flags, peer, sw, FlagSuspect)
	}
	if got.Aux != 7 || got.Flags&FlagSuspect == 0 {
		t.Errorf("encoding lost aux/flag: %+v", got)
	}
}

func TestLifecyclePiggyback(t *testing.T) {
	c := Cell{Kind: KindData, Src: 2, Dst: 3, Seq: 99, Payload: []byte{1}}
	c.SetAnnouncement(FlagJoin, 5, 42)
	got, _, err := DecodeAlias(c.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	// The announcement kinds are told apart by their own flag: a join is
	// not a suspicion or a drain.
	if flags, node, sw := got.Announcement(); flags != FlagJoin || node != 5 || sw != 42 {
		t.Errorf("join = (%#x,%d,%d), want (%#x,5,42)", flags, node, sw, FlagJoin)
	}
	d := Cell{Kind: KindData, Src: 1, Dst: 2, Seq: 7, Payload: []byte{9}}
	d.SetAnnouncement(FlagDrain, 3, 17)
	got2, _, err := DecodeAlias(d.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if flags, node, sw := got2.Announcement(); flags != FlagDrain || node != 3 || sw != 17 {
		t.Errorf("drain = (%#x,%d,%d), want (%#x,3,17)", flags, node, sw, FlagDrain)
	}
	// Hello and welcome are control cells distinguished by flags; a hello
	// is not an announcement.
	hello := Cell{Kind: KindControl, Flags: FlagHello, Src: 6}
	g3, _, err := DecodeAlias(hello.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if g3.Flags&FlagHello == 0 || g3.Src != 6 {
		t.Error("hello lost flags or src")
	}
	if flags, _, _ := g3.Announcement(); flags != 0 {
		t.Errorf("hello read back as announcement %#x", flags)
	}
	welcome := Cell{Kind: KindControl, Src: 0, Dst: 6, Payload: []byte{0x3f}}
	welcome.SetAnnouncement(FlagJoin, 6, 42)
	g4, _, err := DecodeAlias(welcome.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if flags, node, sw := g4.Announcement(); flags != FlagJoin || node != 6 || sw != 42 || g4.Payload[0] != 0x3f {
		t.Error("welcome lost join fields or membership payload")
	}
}

// TestFlagBitsOnTheWire pins the encoded flags byte (header offset 2) of
// every membership message, so no change to the codec can move a bit that
// nodes of another build read.
func TestFlagBitsOnTheWire(t *testing.T) {
	announce := func(kind Kind, flag uint8) Cell {
		c := Cell{Kind: kind, Src: 1, Dst: 2}
		c.SetAnnouncement(flag, 3, 9)
		return c
	}
	for _, tc := range []struct {
		name string
		c    Cell
		want byte
	}{
		{"suspicion", announce(KindData, FlagSuspect), 0x02},
		{"join on a data cell", announce(KindData, FlagJoin), 0x08},
		{"welcome", announce(KindControl, FlagJoin), 0x08},
		{"drain", announce(KindData, FlagDrain), 0x10},
		{"hello", Cell{Kind: KindControl, Flags: FlagHello, Src: 1, Dst: 2}, 0x20},
	} {
		buf := tc.c.Encode(nil)
		if buf[2] != tc.want {
			t.Errorf("%s: flags byte %#02x, want %#02x", tc.name, buf[2], tc.want)
		}
		if buf[3] != 3 && tc.want != 0x20 {
			t.Errorf("%s: aux byte %d, want 3", tc.name, buf[3])
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := DecodeAlias([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer decoded")
	}
	c := Cell{Kind: KindData, Payload: []byte("x")}
	buf := c.Encode(nil)
	buf[0] = 0xFF
	if _, _, err := DecodeAlias(buf); err == nil {
		t.Error("bad magic decoded")
	}
	buf[0] = 0x5C
	buf[1] = 99
	if _, _, err := DecodeAlias(buf); err == nil {
		t.Error("bad kind decoded")
	}
	buf[1] = byte(KindData)
	if _, _, err := DecodeAlias(buf[:len(buf)-1]); err == nil {
		t.Error("truncated payload decoded")
	}
}

func TestEncodeStreaming(t *testing.T) {
	// Multiple cells back to back decode in sequence.
	var buf []byte
	for i := 0; i < 5; i++ {
		c := Cell{Kind: KindControl, Seq: uint32(i)}
		buf = c.Encode(buf)
	}
	off := 0
	for i := 0; i < 5; i++ {
		c, n, err := DecodeAlias(buf[off:])
		if err != nil {
			t.Fatal(err)
		}
		if c.Seq != uint32(i) {
			t.Errorf("cell %d decoded seq %d", i, c.Seq)
		}
		off += n
	}
	if off != len(buf) {
		t.Error("leftover bytes")
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(kindRaw, flags uint8, src, dst uint16, flow, seq uint32, payload []byte) bool {
		kind := Kind(kindRaw%3) + KindData
		c := Cell{Kind: kind, Flags: flags, Src: src, Dst: dst, Flow: flow, Seq: seq, Payload: payload}
		got, n, err := DecodeAlias(c.Encode(nil))
		if err != nil || n != HeaderLen+len(payload) {
			return false
		}
		return got.Kind == kind && got.Flags == flags && got.Src == src &&
			got.Dst == dst && got.Flow == flow && got.Seq == seq &&
			bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReorderInOrder(t *testing.T) {
	r := NewReorder(562)
	for i := uint32(0); i < 10; i++ {
		if got := r.Add(i); got != 1 {
			t.Fatalf("in-order add %d released %d cells, want 1", i, got)
		}
	}
	if r.PeakBytes() != 0 {
		t.Errorf("in-order delivery buffered %d bytes, want 0", r.PeakBytes())
	}
	if r.next != 10 {
		t.Errorf("delivered = %d, want 10", r.next)
	}
}

func TestReorderOutOfOrder(t *testing.T) {
	r := NewReorder(100)
	if r.Add(2) != 0 || r.Add(1) != 0 {
		t.Fatal("future cells should not deliver")
	}
	if len(r.held) != 2 {
		t.Fatalf("holding %d, want 2", len(r.held))
	}
	// Cell 0 releases the whole run.
	if got := r.Add(0); got != 3 {
		t.Fatalf("released %d, want 3", got)
	}
	if len(r.held) != 0 {
		t.Error("buffer not drained")
	}
	if r.PeakBytes() != 200 {
		t.Errorf("peak = %d bytes, want 200", r.PeakBytes())
	}
}

func TestReorderDuplicates(t *testing.T) {
	r := NewReorder(100)
	r.Add(0)
	if r.Add(0) != 0 {
		t.Error("duplicate of delivered cell released something")
	}
	r.Add(2)
	if r.Add(2) != 0 {
		t.Error("duplicate of held cell released something")
	}
	if r.Add(1) != 2 {
		t.Error("wrong release after duplicates")
	}
}

func TestReorderPropertyAnyPermutation(t *testing.T) {
	// Any arrival permutation delivers all cells exactly once, in order.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		perm := rng.New(seed).Perm(n)
		r := NewReorder(1)
		total := 0
		for _, seq := range perm {
			total += r.Add(uint32(seq))
		}
		return total == n && len(r.held) == 0 && r.next == uint32(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReorderPeakBound(t *testing.T) {
	// Reversed arrival of n cells peaks at n-1 held.
	r := NewReorder(1)
	const n = 20
	for i := n - 1; i >= 0; i-- {
		r.Add(uint32(i))
	}
	if r.PeakBytes() != n-1 {
		t.Errorf("peak = %d, want %d", r.PeakBytes(), n-1)
	}
}

func TestCellsForBytes(t *testing.T) {
	cases := []struct{ bytes, per, want int }{
		{0, 542, 1},
		{1, 542, 1},
		{542, 542, 1},
		{543, 542, 2},
		{100_000, 542, 185},
	}
	for _, c := range cases {
		if got := CellsForBytes(c.bytes, c.per); got != c.want {
			t.Errorf("CellsForBytes(%d,%d) = %d, want %d", c.bytes, c.per, got, c.want)
		}
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
	mustPanic("NewReorder(0)", func() { NewReorder(0) })
	mustPanic("CellsForBytes per=0", func() { CellsForBytes(10, 0) })
}
