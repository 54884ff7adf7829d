package wire

import (
	"bytes"
	"encoding/binary"
	"testing"

	"sirius/internal/cell"
)

// frameSeeds returns the framing decoders' seed corpus: a valid frame,
// the same frame truncated and header-corrupted, length fields at and
// past the limit, a frame whose embedded cell header is garbage, and two
// back-to-back frames of different sizes (the second read reuses the
// buffer the first grew).
func frameSeeds() [][]byte {
	valid := appendFrame(nil, 3, &cell.Cell{Kind: cell.KindData, Payload: []byte("payload")})
	corrupted := append([]byte(nil), valid...)
	corrupted[0] ^= 0x80
	corrupted[3] ^= 0x01
	double := appendFrame(nil, 9, &cell.Cell{Kind: cell.KindData, Payload: make([]byte, 100)})
	double = appendFrame(double, 2, &cell.Cell{Kind: cell.KindSync, Payload: []byte("x")})
	return [][]byte{
		valid,
		{0, 0, 0, 0, 0},
		{0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3},
		valid[:3],
		valid[:frameHeader+2],
		{0x00, 0x01, 0x00, 0x01, 9}, // 64KiB+1: rejected
		{0x00, 0x00, 0xFF, 0xFF, 9}, // large but legal, truncated
		corrupted,
		append([]byte{0, 0, 0, 24, 1}, make([]byte, 24)...),
		double,
	}
}

// FuzzReadFrame checks the framing decoder against arbitrary input: no
// panics, bounded allocation, and an accepted frame is exactly the
// header and cell bytes it consumed from the front of the input.
func FuzzReadFrame(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, cellBytes, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkFrame(t, data, w, cellBytes)
	})
}

// checkFrame fails unless data starts with the frame header for
// cellBytes on wavelength w, followed by cellBytes.
func checkFrame(t *testing.T, data []byte, w uint8, cellBytes []byte) {
	t.Helper()
	n := frameHeader + len(cellBytes)
	if len(data) < n || binary.BigEndian.Uint32(data) != uint32(len(cellBytes)) ||
		data[4] != w || !bytes.Equal(data[frameHeader:n], cellBytes) {
		t.Fatal("frame round trip mismatch")
	}
}

// FuzzReadFrameInto checks the zero-copy decoder byte-for-byte against
// the allocating ReadFrame on the same corpus: identical wavelength,
// cell bytes, and error disposition, with the returned slice aliasing
// the caller's buffer and the full wire frame reconstructable from it.
// A second read through the same buffer must not see stale bytes.
func FuzzReadFrameInto(f *testing.F) {
	for _, s := range frameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		refR := bytes.NewReader(data)
		zcR := bytes.NewReader(data)
		buf := make([]byte, 0, 8) // deliberately tiny: force growth paths
		for off := 0; ; {
			refW, refCell, refErr := ReadFrame(refR)
			w, cellBytes, err := ReadFrameInto(zcR, &buf)
			if (refErr == nil) != (err == nil) {
				t.Fatalf("error disposition differs: ReadFrame=%v ReadFrameInto=%v", refErr, err)
			}
			if err != nil {
				if refErr.Error() != err.Error() {
					t.Fatalf("error text differs: %q vs %q", refErr, err)
				}
				return
			}
			if w != refW || !bytes.Equal(cellBytes, refCell) {
				t.Fatal("ReadFrameInto diverges from ReadFrame")
			}
			n := frameHeader + len(cellBytes)
			if &buf[0] != &buf[:n][0] || !bytes.Equal(buf[frameHeader:n], refCell) {
				t.Fatal("cell bytes do not alias the caller's buffer")
			}
			// The buffer must hold the complete re-emittable wire frame.
			if !bytes.Equal(buf[:n], data[off:off+n]) {
				t.Fatal("buffer does not hold the full wire frame")
			}
			off += n
		}
	})
}

// FuzzHandshake checks the registration handshake parser: no panics,
// every reject carries a non-OK status, and accepted handshakes
// round-trip through EncodeHandshake (including the re-register flag).
func FuzzHandshake(f *testing.F) {
	ok := EncodeHandshake(2, 0)
	f.Add(ok[:], 4)
	rr := EncodeHandshake(1, HsReRegister)
	f.Add(rr[:], 4)
	f.Add([]byte{0xA7, hsVersion, 99, 0}, 4) // port out of range
	f.Add([]byte{0xDE, 0xAD, 0xBE, 0xEF}, 8) // bad magic
	f.Add([]byte{0xA7, 1, 0, 0}, 4)          // stale version
	f.Fuzz(func(t *testing.T, data []byte, ports int) {
		if len(data) < hsLen {
			return
		}
		if ports < 2 || ports > 255 {
			ports = 4
		}
		var h [hsLen]byte
		copy(h[:], data)
		port, flags, status, err := ParseHandshake(h, ports)
		if err != nil {
			if status == HsOK {
				t.Fatal("rejected handshake reported HsOK")
			}
			return
		}
		if status != HsOK {
			t.Fatalf("accepted handshake has status %d", status)
		}
		if port < 0 || port >= ports {
			t.Fatalf("accepted out-of-range port %d", port)
		}
		re := EncodeHandshake(port, flags)
		if re != h {
			t.Fatalf("handshake round trip: %v -> %v", h, re)
		}
	})
}
