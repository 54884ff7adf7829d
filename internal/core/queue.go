package core

import "math/bits"

// arena is a free-list slab allocator for fifo backing segments. Segments
// are power-of-two sized and binned by their log2 capacity, so a segment
// released by one queue (on growth, or when a large queue drains) is
// reused verbatim by the next queue that grows into that size class.
//
// The simulator keeps n*n destination/forward queues whose occupancy
// follows the traffic; without recycling, every queue retains its own
// high-water-mark array and the total footprint is the *sum* of
// high-water marks. With the arena it is the *peak concurrent* cell
// population, and — the property the steady-state zero-allocation
// contract relies on — once every size class has seen its peak, growth
// and drain cycles perform no heap allocations at all.
type arena[T int32 | int64] struct {
	classes [28][][]T // free segments, indexed by log2(cap)
	block   []T       // bump-allocation chunk for fresh small segments
}

// arenaChunk is the element count of a bump chunk. Fresh segments up to
// this size are carved out of one large allocation instead of being
// malloc'd individually: a simulator with n*n queues seeds tens of
// thousands of 8..256-element segments during warm-up, and carving turns
// those into a handful of chunk allocations.
const arenaChunk = 1 << 14

// get returns an empty segment with capacity >= n (a power of two,
// minimum 8), reusing a free segment when one is available.
func (a *arena[T]) get(n int) []T {
	c := 3 // minimum class: cap 8
	if n > 8 {
		c = bits.Len(uint(n - 1)) // ceil(log2(n))
	}
	if free := a.classes[c]; len(free) > 0 {
		seg := free[len(free)-1]
		free[len(free)-1] = nil
		a.classes[c] = free[:len(free)-1]
		return seg
	}
	size := 1 << uint(c)
	if size <= arenaChunk {
		if len(a.block) < size {
			a.block = make([]T, arenaChunk)
		}
		// Full-slice expression caps the segment at its class size, so
		// append growth can never bleed into a neighboring segment.
		seg := a.block[0:0:size]
		a.block = a.block[size:]
		return seg
	}
	return make([]T, 0, size)
}

// put releases a segment for reuse. Only power-of-two capacities (the
// ones get hands out) are banked; anything else is left to the GC.
func (a *arena[T]) put(seg []T) {
	c := cap(seg)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cl := bits.Len(uint(c)) - 1
	if cl >= len(a.classes) {
		return
	}
	a.classes[cl] = append(a.classes[cl], seg[:0])
}

// releaseCap is the backing capacity above which a fifo returns its
// segment to the arena when it drains; smaller queues keep theirs so
// tightly oscillating queues do no free-list traffic at all.
const releaseCap = 256

// fifo is a growable FIFO with amortized O(1) push/pop. The zero value is
// an empty queue. Backing segments come from (and return to) an arena:
// growth swaps to a recycled double-size segment, and draining a large
// queue releases its segment for other queues to reuse. Element types are
// the two the simulator uses: int32 for flow/destination ids and int64
// for packed (flow, seq) cell references.
type fifo[T int32 | int64] struct {
	items []T
	head  int
}

func (q *fifo[T]) push(v T, a *arena[T]) {
	if len(q.items) == cap(q.items) {
		live := len(q.items) - q.head
		switch {
		case q.head > 0 && q.head >= live:
			// The dead prefix dominates: compact in place, no allocation.
			n := copy(q.items, q.items[q.head:])
			q.items = q.items[:n]
			q.head = 0
		default:
			// Grow through the arena and release the old segment.
			grown := a.get(2*cap(q.items) + 8)
			grown = grown[:live]
			copy(grown, q.items[q.head:])
			a.put(q.items)
			q.items = grown
			q.head = 0
		}
	}
	q.items = append(q.items, v)
}

func (q *fifo[T]) pop(a *arena[T]) T {
	if q.head >= len(q.items) {
		panic("core: pop from empty fifo")
	}
	v := q.items[q.head]
	q.head++
	if q.head == len(q.items) {
		if cap(q.items) > releaseCap {
			a.put(q.items)
			q.items = nil
		} else {
			q.items = q.items[:0]
		}
		q.head = 0
	}
	return v
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) empty() bool { return q.head >= len(q.items) }

// cellRef packs a flow id and an intra-flow sequence number into one
// queue entry.
func cellRef(flow int32, seq int32) int64 { return int64(flow)<<32 | int64(uint32(seq)) }

func unpackRef(ref int64) (flow int32, seq int32) {
	return int32(ref >> 32), int32(uint32(ref))
}
