// Package eventq implements the event queue of the packet-level Clos
// model (internal/clos), the reference the fluid model is validated
// against.
//
// It is a plain binary min-heap ordered by time, with a sequence number to
// break ties deterministically in insertion order.
package eventq

import "sirius/internal/simtime"

// Event is a scheduled callback.
type Event struct {
	At   simtime.Time
	Fn   func()
	seq  uint64
	next *Event // free-list link while pooled
	idx  int    // heap index; -1 popped, -2 pooled
}

// Queue is a time-ordered event queue. The zero value is ready to use.
//
// Popped events are recycled through a per-queue free list (see Recycle),
// so an event-driven simulation with a bounded number of in-flight events
// stops allocating Event structs once the pool has seen its peak.
type Queue struct {
	h    []*Event
	seq  uint64
	free *Event
}

// Schedule enqueues fn to run at time at and returns the event handle.
// The Event comes from the queue's pool
// when one is free; the handle must not be retained past the point where
// the event runs inside RunUntil (which recycles it).
func (q *Queue) Schedule(at simtime.Time, fn func()) *Event {
	e := q.free
	if e != nil {
		q.free = e.next
		e.next = nil
		e.At, e.Fn = at, fn
	} else {
		e = &Event{At: at, Fn: fn}
	}
	e.seq = q.seq
	q.seq++
	e.idx = len(q.h)
	q.h = append(q.h, e)
	q.up(e.idx)
	return e
}

// Recycle returns a popped event to the queue's pool for reuse by a later
// Schedule. Only events that have left the heap (via Pop) are banked;
// recycling a queued or already-pooled event is a no-op. The caller must
// not touch e afterwards.
func (q *Queue) Recycle(e *Event) {
	if e == nil || e.idx != -1 {
		return
	}
	e.idx = -2
	e.Fn = nil // drop the closure so pooled events retain nothing
	e.next = q.free
	q.free = e
}

// PeekTime returns the time of the earliest event. ok is false when empty.
func (q *Queue) PeekTime() (t simtime.Time, ok bool) {
	if len(q.h) == 0 {
		return 0, false
	}
	return q.h[0].At, true
}

// Pop removes and returns the earliest event. It returns nil when empty.
func (q *Queue) Pop() *Event {
	if len(q.h) == 0 {
		return nil
	}
	e := q.h[0]
	last := len(q.h) - 1
	q.swap(0, last)
	q.h = q.h[:last]
	e.idx = -1
	if last > 0 {
		q.down(0)
	}
	return e
}

// RunUntil pops and runs events until the queue is empty or the next event
// is after deadline. It returns the time of the last event run. Each event
// is recycled into the queue's pool after its callback returns, so the
// handles returned by Schedule must not be used once their event has run.
func (q *Queue) RunUntil(deadline simtime.Time) simtime.Time {
	var last simtime.Time
	for {
		t, ok := q.PeekTime()
		if !ok || t > deadline {
			return last
		}
		e := q.Pop()
		last = e.At
		fn := e.Fn
		q.Recycle(e)
		fn()
	}
}

func (q *Queue) less(i, j int) bool {
	a, b := q.h[i], q.h[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.h[i], q.h[j] = q.h[j], q.h[i]
	q.h[i].idx = i
	q.h[j].idx = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}
