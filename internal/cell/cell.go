// Package cell defines Sirius' fixed-size transmission unit and the
// receiver-side reordering machinery.
//
// Sirius slices all traffic into fixed-size cells (§4.2; 562 bytes in the
// default configuration: a 90 ns transmission slot at 50 Gb/s). Because
// cells of one flow take different paths through different intermediate
// nodes, they can arrive out of order; the destination holds them in a
// per-flow reorder buffer until the missing earlier cells arrive. The
// congestion-control protocol keeps queuing — and therefore the reorder
// buffer — small (Fig. 10d).
package cell

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderLen is the encoded header size in bytes.
const HeaderLen = 20

// Kind discriminates cell types on the wire.
type Kind uint8

// Cell kinds.
const (
	KindData    Kind = iota + 1
	KindControl      // carries only piggybacked requests/grants
	KindSync         // time-synchronization beacon
)

// Flags. Each keeps the bit value it has always had on the wire; bits 0
// and 2 are unassigned.
const (
	// FlagSuspect marks a cell carrying a piggybacked failure suspicion
	// (§4.5). The flood rides ordinary data cells — the cyclic schedule
	// connects every pair once per epoch, so one epoch of data traffic
	// disseminates a suspicion fabric-wide.
	FlagSuspect uint8 = 1 << 1
	// FlagJoin marks a lifecycle join announcement. On a data cell it is
	// the piggybacked join flood. On a control cell it is a *welcome*: a
	// member tells the joiner the switch epoch and the fabric membership
	// as of that epoch (payload bitmap, one bit per port).
	FlagJoin uint8 = 1 << 3
	// FlagDrain marks a data cell carrying a piggybacked planned-drain
	// announcement: the fabric stops scheduling toward the node from the
	// switch epoch on.
	FlagDrain uint8 = 1 << 4
	// FlagHello marks a control cell from a not-yet-admitted node
	// announcing that it is attached and ready to join: Src names the
	// joiner. Members hold the expansion switch until every scripted
	// joiner has said hello.
	FlagHello uint8 = 1 << 5
)

// announceFlags are the membership announcements. They share the header's
// side channels — Aux names the node, Flow carries the agreed switch epoch
// — so a cell carries at most one; the flooding layer attaches
// announcements to distinct cells round-robin.
const announceFlags = FlagSuspect | FlagJoin | FlagDrain

// Cell is one fixed-size unit of transmission. Src and Dst are node ids;
// Flow identifies the flow and Seq the cell's position within it. Aux is
// a one-byte side channel in the header's former pad byte; it names the
// node of a membership announcement.
type Cell struct {
	Kind    Kind
	Flags   uint8
	Aux     uint8
	Src     uint16
	Dst     uint16
	Flow    uint32
	Seq     uint32
	Payload []byte
}

// Announcement returns the membership announcement piggybacked on the
// cell: which of FlagSuspect, FlagJoin and FlagDrain are set (0 when it
// carries none), the node it names and the agreed switch epoch.
func (c *Cell) Announcement() (flags uint8, node, switchEpoch int) {
	return c.Flags & announceFlags, int(c.Aux), int(c.Flow)
}

// SetAnnouncement piggybacks one membership announcement — flag is
// FlagSuspect, FlagJoin or FlagDrain — naming node, with the agreed
// switch epoch.
func (c *Cell) SetAnnouncement(flag uint8, node, switchEpoch int) {
	c.Flags |= flag
	c.Aux = uint8(node)
	c.Flow = uint32(switchEpoch)
}

const magic = 0x5C // "Sirius Cell"

// ErrBadCell is returned when decoding malformed bytes.
var ErrBadCell = errors.New("cell: malformed encoding")

// Encode appends the wire encoding of c to buf and returns the result.
// Layout (big endian, as is conventional on the wire):
//
//	magic(1) kind(1) flags(1) aux(1) src(2) dst(2) flow(4) seq(4) paylen(4)
func (c *Cell) Encode(buf []byte) []byte {
	var h [HeaderLen]byte
	h[0] = magic
	h[1] = byte(c.Kind)
	h[2] = c.Flags
	h[3] = c.Aux
	binary.BigEndian.PutUint16(h[4:], c.Src)
	binary.BigEndian.PutUint16(h[6:], c.Dst)
	binary.BigEndian.PutUint32(h[8:], c.Flow)
	binary.BigEndian.PutUint32(h[12:], c.Seq)
	binary.BigEndian.PutUint32(h[16:], uint32(len(c.Payload)))
	buf = append(buf, h[:]...)
	return append(buf, c.Payload...)
}

// DecodeAlias decodes a cell whose Payload aliases buf directly — no
// copy, no allocation. The caller must be done with the cell before it
// overwrites or reuses buf; receive hot paths that verify the payload
// in place and move on (wire.node) use this to stay zero-alloc.
func DecodeAlias(buf []byte) (Cell, int, error) {
	if len(buf) < HeaderLen {
		return Cell{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadCell, len(buf))
	}
	if buf[0] != magic {
		return Cell{}, 0, fmt.Errorf("%w: bad magic 0x%02x", ErrBadCell, buf[0])
	}
	k := Kind(buf[1])
	if k != KindData && k != KindControl && k != KindSync {
		return Cell{}, 0, fmt.Errorf("%w: unknown kind %d", ErrBadCell, k)
	}
	payLen := binary.BigEndian.Uint32(buf[16:])
	if uint32(len(buf)-HeaderLen) < payLen {
		return Cell{}, 0, fmt.Errorf("%w: truncated payload", ErrBadCell)
	}
	c := Cell{
		Kind:  k,
		Flags: buf[2],
		Aux:   buf[3],
		Src:   binary.BigEndian.Uint16(buf[4:]),
		Dst:   binary.BigEndian.Uint16(buf[6:]),
		Flow:  binary.BigEndian.Uint32(buf[8:]),
		Seq:   binary.BigEndian.Uint32(buf[12:]),
	}
	if payLen > 0 {
		c.Payload = buf[HeaderLen : HeaderLen+int(payLen)]
	}
	return c, HeaderLen + int(payLen), nil
}

// Reorder is a per-flow reorder buffer: it accepts cells in arrival order
// and releases them in sequence order, tracking the peak number of bytes
// held (the Fig. 10d metric).
type Reorder struct {
	cellBytes int
	next      uint32
	held      map[uint32]bool
	peakCells int
}

// NewReorder returns a buffer for a flow whose cells are cellBytes each.
func NewReorder(cellBytes int) *Reorder {
	if cellBytes <= 0 {
		panic("cell: non-positive cell size")
	}
	return &Reorder{cellBytes: cellBytes, held: make(map[uint32]bool)}
}

// Add accepts the arrival of cell seq and returns how many cells became
// deliverable in order (including this one if it was the next expected).
// Duplicate arrivals are ignored and return 0.
func (r *Reorder) Add(seq uint32) int {
	if seq < r.next || r.held[seq] {
		return 0 // duplicate
	}
	if seq != r.next {
		r.held[seq] = true
		if len(r.held) > r.peakCells {
			r.peakCells = len(r.held)
		}
		return 0
	}
	n := 1
	r.next++
	for r.held[r.next] {
		delete(r.held, r.next)
		r.next++
		n++
	}
	return n
}

// PeakBytes returns the largest buffer occupancy observed, in bytes.
func (r *Reorder) PeakBytes() int { return r.peakCells * r.cellBytes }

// CellsForBytes returns how many cells of the given payload capacity are
// needed to carry a flow of flowBytes (at least one; a flow always sends
// at least one cell).
func CellsForBytes(flowBytes, payloadPerCell int) int {
	if payloadPerCell <= 0 {
		panic("cell: non-positive payload size")
	}
	if flowBytes <= 0 {
		return 1
	}
	return (flowBytes + payloadPerCell - 1) / payloadPerCell
}
