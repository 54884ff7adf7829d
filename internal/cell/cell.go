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

// Flags.
const (
	// FlagLast marks the final cell of a flow.
	FlagLast uint8 = 1 << iota
	// FlagSuspect marks a cell carrying a piggybacked failure suspicion
	// (§4.5): Aux names the suspected node and Flow carries the proposed
	// schedule-switch epoch. The flood rides ordinary data cells — the
	// cyclic schedule connects every pair once per epoch, so one epoch of
	// data traffic disseminates a suspicion fabric-wide.
	FlagSuspect
	// FlagFin marks a control cell announcing that the sender has
	// transmitted its final scheduled cell toward the receiver: the
	// receiver can account the stream closed without a timeout.
	FlagFin
	// FlagJoin marks a lifecycle join announcement. On a data cell it is
	// the piggybacked join flood (Aux names the joining node, Flow the
	// agreed switch epoch — the same min-S convergence as FlagSuspect).
	// On a control cell it is a *welcome*: a member tells the joiner the
	// switch epoch (Flow) and the fabric membership as of that epoch
	// (payload bitmap, one bit per port).
	FlagJoin
	// FlagDrain marks a data cell carrying a piggybacked planned-drain
	// announcement: Aux names the draining node and Flow the switch epoch
	// from which the fabric stops scheduling toward it.
	FlagDrain
	// FlagHello marks a control cell from a not-yet-admitted node
	// announcing that it is attached and ready to join: Src names the
	// joiner. Members hold the expansion switch until every scripted
	// joiner has said hello.
	FlagHello
)

// Cell is one fixed-size unit of transmission. Src and Dst are node ids;
// Flow identifies the flow and Seq the cell's position within it. Aux is
// a one-byte side channel rides in the header's former pad byte; it
// carries the suspected node id when FlagSuspect is set.
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

// Suspicion returns the piggybacked failure suspicion, if any: the
// suspected node id and the proposed fabric-wide schedule-switch epoch.
func (c *Cell) Suspicion() (peer int, switchEpoch int, ok bool) {
	if c.Flags&FlagSuspect == 0 {
		return 0, 0, false
	}
	return int(c.Aux), int(c.Flow), true
}

// SetSuspicion piggybacks a failure suspicion on the cell.
func (c *Cell) SetSuspicion(peer int, switchEpoch int) {
	c.Flags |= FlagSuspect
	c.Aux = uint8(peer)
	c.Flow = uint32(switchEpoch)
}

// The lifecycle announcements below reuse the Aux/Flow side channels, so
// a cell carries at most one of suspicion/join/drain — the flooding
// layer attaches announcements to distinct cells round-robin.

// Join returns the piggybacked join announcement, if any: the joining
// node id and the agreed switch epoch.
func (c *Cell) Join() (node int, switchEpoch int, ok bool) {
	if c.Flags&FlagJoin == 0 {
		return 0, 0, false
	}
	return int(c.Aux), int(c.Flow), true
}

// SetJoin piggybacks a join announcement on the cell.
func (c *Cell) SetJoin(node int, switchEpoch int) {
	c.Flags |= FlagJoin
	c.Aux = uint8(node)
	c.Flow = uint32(switchEpoch)
}

// Drain returns the piggybacked planned-drain announcement, if any: the
// draining node id and the switch epoch from which the fabric stops
// scheduling toward it.
func (c *Cell) Drain() (node int, switchEpoch int, ok bool) {
	if c.Flags&FlagDrain == 0 {
		return 0, 0, false
	}
	return int(c.Aux), int(c.Flow), true
}

// SetDrain piggybacks a planned-drain announcement on the cell.
func (c *Cell) SetDrain(node int, switchEpoch int) {
	c.Flags |= FlagDrain
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
