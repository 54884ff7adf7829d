package core

// pool holds the entries of every queue of one element type: one slice
// of (value, next) cells threaded into per-queue chains and a free list.
// It holds no pointer, so the GC never scans it, and the simulator's
// queue memory follows the peak number of entries queued at once, not
// the number of pairs that ever held one. Once the pool has grown to
// that peak, push and pop allocate nothing (the steady-state
// zero-allocation contract). Cell 0 is never handed out, so 0 is the
// nil link.
type pool[T int32 | int64] struct {
	cells []poolCell[T]
	free  int32 // head of the free list, 0 when it is empty
}

type poolCell[T int32 | int64] struct {
	v    T
	next int32
}

// alloc returns an unused cell, growing the pool when none is free.
func (p *pool[T]) alloc() int32 {
	if c := p.free; c != 0 {
		p.free = p.cells[c].next
		return c
	}
	if len(p.cells) == cap(p.cells) {
		// Double explicitly: append grows a large slice by about 1.25×,
		// so a pool that ends at a million cells would allocate several
		// times its final size on the way.
		grown := make([]poolCell[T], max(len(p.cells), 1), max(2*cap(p.cells), 1024))
		copy(grown, p.cells)
		p.cells = grown
	}
	c := int32(len(p.cells))
	p.cells = p.cells[:c+1]
	return c
}

// release puts cell c on the free list.
func (p *pool[T]) release(c int32) {
	p.cells[c].next = p.free
	p.free = c
}

// fifo is a FIFO chained through a pool's cells. The zero value is an
// empty queue. Element types are the two the simulator uses: int32 for
// flow ids and int64 for packed (flow, seq) cell references.
type fifo[T int32 | int64] struct {
	head, tail, n int32
}

func (q *fifo[T]) push(v T, p *pool[T]) {
	c := p.alloc()
	p.cells[c].v = v
	if q.n == 0 {
		q.head = c
	} else {
		p.cells[q.tail].next = c
	}
	q.tail = c
	q.n++
}

func (q *fifo[T]) pop(p *pool[T]) T {
	if q.n == 0 {
		panic("core: pop from empty fifo")
	}
	h := q.head
	v := p.cells[h].v
	q.head = p.cells[h].next
	p.release(h)
	q.n--
	return v
}

func (q *fifo[T]) len() int { return int(q.n) }

func (q *fifo[T]) empty() bool { return q.n == 0 }

// runQueue is a LOCAL queue: the flow ids of its cells, oldest first,
// kept as runs of one flow's cells chained through a pool of
// flow<<32|count words, so a flow's cells queued back to back take one
// pool cell. The zero value is an empty queue; n counts cells, not runs.
type runQueue struct {
	head, tail, n int32
}

// push appends count cells of flow f.
func (q *runQueue) push(f, count int32, p *pool[int64]) {
	if q.n > 0 && int32(p.cells[q.tail].v>>32) == f {
		p.cells[q.tail].v += int64(count)
	} else {
		c := p.alloc()
		p.cells[c].v = int64(f)<<32 | int64(count)
		if q.n == 0 {
			q.head = c
		} else {
			p.cells[q.tail].next = c
		}
		q.tail = c
	}
	q.n += count
}

// pop removes the oldest cell and returns its flow.
func (q *runQueue) pop(p *pool[int64]) int32 {
	if q.n == 0 {
		panic("core: pop from empty LOCAL queue")
	}
	h := q.head
	run := &p.cells[h]
	f := int32(run.v >> 32)
	if run.v--; uint32(run.v) == 0 {
		q.head = run.next
		p.release(h)
	}
	q.n--
	return f
}

func (q *runQueue) len() int { return int(q.n) }

func (q *runQueue) empty() bool { return q.n == 0 }

// cellRef packs a flow id and an intra-flow sequence number into one
// queue entry.
func cellRef(flow int32, seq int32) int64 { return int64(flow)<<32 | int64(uint32(seq)) }

func unpackRef(ref int64) (flow int32, seq int32) {
	return int32(ref >> 32), int32(uint32(ref))
}
