package cell

import (
	"bytes"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to DecodeAlias, the decoder the wire
// node runs: it must never panic,
// and whenever it accepts an input, re-encoding the result must
// round-trip to an equivalent cell.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Cell{Kind: KindData, Payload: []byte("seed")}).Encode(nil))
	f.Add((&Cell{Kind: KindSync, Flags: 0x01, Src: 1, Dst: 2, Flow: 3, Seq: 4}).Encode(nil)) // an unassigned flag bit
	f.Add(bytes.Repeat([]byte{0x5C}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, n, err := DecodeAlias(data)
		if err != nil {
			return
		}
		if n < HeaderLen || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		re := c.Encode(nil)
		c2, n2, err := DecodeAlias(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if n2 != len(re) || c2.Kind != c.Kind || c2.Flags != c.Flags ||
			c2.Src != c.Src || c2.Dst != c.Dst || c2.Flow != c.Flow ||
			c2.Seq != c.Seq || !bytes.Equal(c2.Payload, c.Payload) {
			t.Fatal("round trip mismatch")
		}
	})
}
