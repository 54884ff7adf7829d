// Package wire emulates the paper's §6 prototype over a real network
// stack: four (or more) node processes connected through an AWGR emulator
// via TCP on localhost.
//
// The paper's testbed connects FPGA nodes through a physical grating;
// each node follows the static cyclic schedule, retunes its laser every
// slot, transmits a PRBS test pattern, and the receivers measure the bit
// error rate. Here the "light" is a framed TCP stream and the "grating"
// is a process that routes each frame by its wavelength field using the
// same cyclic rule as a physical AWGR — wavelength w on input port i
// exits on port (i+w) mod N. The emulator can flip payload bits with a
// configurable probability, standing in for operation below receiver
// sensitivity, which the nodes detect with their PRBS checkers exactly as
// the FPGAs do.
//
// Beyond the clean-channel experiment, the package implements the §4.5
// failure story live: a deterministic fault plan (internal/fault) injects
// node crashes, link flaps, grey (per-port-pair) blackholes, per-port BER
// degradation, and frame stalls, while the nodes detect silent peers with
// the in-band epoch gap the cyclic schedule provides (health.Observer),
// flood suspicions piggybacked on data cells, and switch the whole fabric
// to a compacted schedule at an agreed epoch boundary — all without any
// absolute run deadline: progress deadlines roll forward, dead peers'
// frames are accounted against their confirmed failure, and a broken
// connection re-registers with capped exponential backoff instead of
// tearing the fabric down.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"sirius/internal/cell"
)

// Frame layout: u32 payload length | u8 wavelength | cell bytes.
const frameHeader = 5

// maxFrame bounds decoded frames defensively.
const maxFrame = 64 << 10

// maxPorts is the hard fabric-size cap: both the wavelength field of a
// frame and the port field of the handshake are a single byte, so ports
// and wavelengths live in [0, 256). Documented in docs/PROTOCOL.md.
const maxPorts = 256

// appendFrame appends one frame carrying c on wavelength w to dst.
func appendFrame(dst []byte, w uint8, c *cell.Cell) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, w)
	dst = c.Encode(dst)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(dst)-start-frameHeader))
	return dst
}

// ReadFrameInto reads one frame into *buf, growing it if needed, and
// returns the wavelength and the cell bytes. The returned slice aliases
// (*buf)[frameHeader:]; the caller owns *buf and may reuse it for the
// next read once it is done with the cell bytes. After a successful
// read, (*buf)[:frameHeader+len(cellBytes)] holds the complete wire
// frame (header + payload) with the header already encoded, so a router
// can rewrite the wavelength byte in place and forward the whole frame
// without reassembling it.
func ReadFrameInto(r io.Reader, buf *[]byte) (wavelength uint8, cellBytes []byte, err error) {
	b := *buf
	if cap(b) < frameHeader {
		b = make([]byte, 0, frameHeader+4096)
	}
	b = b[:frameHeader]
	if _, err := io.ReadFull(r, b); err != nil {
		*buf = b
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(b[:4])
	if n > maxFrame {
		*buf = b
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	total := frameHeader + int(n)
	if cap(b) < total {
		nb := make([]byte, total)
		copy(nb, b)
		b = nb
	}
	b = b[:total]
	if _, err := io.ReadFull(r, b[frameHeader:]); err != nil {
		*buf = b
		return 0, nil, err
	}
	*buf = b
	return b[4], b[frameHeader:], nil
}

// ReadFrame reads one frame. Compatibility wrapper around ReadFrameInto
// that allocates a fresh buffer per call; hot paths should hold a
// reusable buffer and call ReadFrameInto directly.
func ReadFrame(r io.Reader) (wavelength uint8, cellBytes []byte, err error) {
	var buf []byte
	return ReadFrameInto(r, &buf)
}

// ---- Handshake ----
//
// A node introduces itself with a fixed 4-byte request and the emulator
// answers with a 2-byte reply, so a rejected client learns *why* instead
// of seeing a bare connection reset, and a buggy or malicious client can
// never take the fabric down — the emulator rejects and keeps accepting.

const (
	hsMagic = 0xA7
	// hsVersion 2 added the lifecycle plane (join/drain/hello cell flags
	// and dormant registrations). The version byte bumps only for
	// semantics-bearing changes a v1 peer would misinterpret — purely
	// additive, ignorable extensions do not bump it (see
	// docs/PROTOCOL.md, "Version byte bump rules").
	hsVersion  = 2
	hsLen      = 4
	hsReplyLen = 2
)

// Handshake flags.
const (
	// HsReRegister marks a reconnection: the emulator replaces any prior
	// connection for the port instead of rejecting a duplicate.
	HsReRegister uint8 = 1 << iota
)

// Handshake reply statuses.
const (
	HsOK        uint8 = 0
	HsBadMagic  uint8 = 1
	HsBadPort   uint8 = 2
	HsDuplicate uint8 = 3
)

// EncodeHandshake builds the 4-byte handshake request for a port.
func EncodeHandshake(port int, flags uint8) [hsLen]byte {
	return [hsLen]byte{hsMagic, hsVersion, uint8(port), flags}
}

// ParseHandshake validates a handshake request and returns the port and
// flags. A non-nil error maps to the returned reject status.
func ParseHandshake(h [hsLen]byte, ports int) (port int, flags uint8, status uint8, err error) {
	if h[0] != hsMagic || h[1] != hsVersion {
		return 0, 0, HsBadMagic, fmt.Errorf("wire: bad handshake magic/version %#x/%d", h[0], h[1])
	}
	port = int(h[2])
	if port < 0 || port >= ports {
		return 0, 0, HsBadPort, fmt.Errorf("wire: port %d out of range [0,%d)", port, ports)
	}
	return port, h[3], HsOK, nil
}

// hsStatusString names a reject status for error messages.
func hsStatusString(s uint8) string {
	switch s {
	case HsOK:
		return "ok"
	case HsBadMagic:
		return "bad magic/version"
	case HsBadPort:
		return "port out of range"
	case HsDuplicate:
		return "port already connected"
	}
	return fmt.Sprintf("status %d", s)
}

// cellEpoch extracts the fabric epoch carried in-band by a framed cell's
// sequence number (Seq = epoch<<8 | slot). Frames too short to carry a
// cell header report epoch 0.
func cellEpoch(cellBytes []byte) int {
	if len(cellBytes) < cell.HeaderLen {
		return 0
	}
	return int(binary.BigEndian.Uint32(cellBytes[12:16]) >> 8)
}
