package eventq

import (
	"testing"
	"testing/quick"

	"sirius/internal/rng"
	"sirius/internal/simtime"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(30, func() { got = append(got, 3) })
	q.Schedule(10, func() { got = append(got, 1) })
	q.Schedule(20, func() { got = append(got, 2) })
	q.RunUntil(100)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("run order = %v, want [1 2 3]", got)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, func() { got = append(got, i) })
	}
	q.RunUntil(5)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events ran out of insertion order: %v", got)
		}
	}
}

func TestRunUntilDeadline(t *testing.T) {
	var q Queue
	ran := 0
	q.Schedule(10, func() { ran++ })
	q.Schedule(20, func() { ran++ })
	q.Schedule(30, func() { ran++ })
	last := q.RunUntil(20)
	if ran != 2 {
		t.Errorf("ran %d events, want 2", ran)
	}
	if last != 20 {
		t.Errorf("last = %v, want 20", last)
	}
	if len(q.h) != 1 {
		t.Errorf("Len = %d, want 1", len(q.h))
	}
}

func TestPopEmpty(t *testing.T) {
	var q Queue
	if q.Pop() != nil {
		t.Error("Pop on empty queue returned non-nil")
	}
	if _, ok := q.PeekTime(); ok {
		t.Error("PeekTime on empty queue returned ok")
	}
}

func TestScheduleDuringRun(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(10, func() {
		got = append(got, 1)
		q.Schedule(15, func() { got = append(got, 2) })
	})
	q.RunUntil(20)
	if len(got) != 2 || got[1] != 2 {
		t.Errorf("nested schedule: got %v", got)
	}
}

func TestPropertyHeapOrder(t *testing.T) {
	// Any random insertion sequence pops in non-decreasing time order.
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		var q Queue
		count := int(n%200) + 1
		for i := 0; i < count; i++ {
			q.Schedule(simtime.Time(r.Intn(1000)), func() {})
		}
		prev := simtime.Time(-1)
		for len(q.h) > 0 {
			e := q.Pop()
			if e.At < prev {
				return false
			}
			prev = e.At
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
