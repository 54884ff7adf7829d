//go:build !race

// Skipped under the race detector: its instrumentation changes the
// allocation behavior testing.AllocsPerRun observes.

package eventq

import (
	"testing"

	"sirius/internal/simtime"
)

// TestScheduleRecycleZeroAlloc pins the event pool contract: once the
// pool has seen the peak number of in-flight events, schedule/run cycles
// allocate nothing.
func TestScheduleRecycleZeroAlloc(t *testing.T) {
	var q Queue
	fn := func() {} // non-capturing: compiled statically, no closure alloc
	var at simtime.Time

	// Seed the pool (and the heap's backing array) with a burst of eight
	// concurrently pending events.
	for i := 0; i < 8; i++ {
		at++
		q.Schedule(at, fn)
	}
	q.RunUntil(at)

	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			at++
			q.Schedule(at, fn)
		}
		q.RunUntil(at)
	}); avg != 0 {
		t.Errorf("schedule/run cycle allocates %.2f objects, want 0", avg)
	}
}

// TestRecycleReuse checks that a recycled event is handed back by the next
// Schedule and that recycling respects event state.
func TestRecycleReuse(t *testing.T) {
	var q Queue
	fn := func() {}
	e := q.Schedule(1, fn)
	q.Recycle(e) // still queued: must be a no-op
	if got := q.Pop(); got != e {
		t.Fatalf("Pop = %p, want the scheduled event %p", got, e)
	}
	q.Recycle(e)
	q.Recycle(e) // double recycle: no-op, must not corrupt the free list
	e2 := q.Schedule(2, fn)
	if e2 != e {
		t.Errorf("Schedule after Recycle allocated a new event; want pooled reuse")
	}
	e3 := q.Schedule(3, fn)
	if e3 == e2 {
		t.Errorf("second Schedule returned the still-queued event")
	}
	if len(q.h) != 2 {
		t.Errorf("Len = %d, want 2", len(q.h))
	}
}
