package fluid

import (
	"reflect"
	"testing"

	"sirius/internal/rng"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// TestSortedFastPath covers the sortedness pre-check: sorted input (the
// workload.Generate contract) must be detected as such and used in place
// without a defensive copy; out-of-order input must fall back to the
// copy-and-stable-sort path, leave the caller's slice untouched, and
// produce the same physics as a pre-sorted equivalent.
func TestSortedFastPath(t *testing.T) {
	cfg := Config{Endpoints: 16, EndpointRate: 100 * simtime.Gbps,
		BaseRTT: simtime.Microsecond, Oversub: 1}

	// Build an out-of-order arrival sequence (IDs must stay equal to the
	// slice index — they do not influence the dynamics).
	r := rng.New(99)
	unsorted := make([]workload.Flow, 400)
	for i := range unsorted {
		src := r.Intn(cfg.Endpoints)
		dst := r.Intn(cfg.Endpoints - 1)
		if dst >= src {
			dst++
		}
		unsorted[i] = workload.Flow{ID: i, Src: src, Dst: dst,
			Bytes:   2000 + r.Intn(100_000),
			Arrival: simtime.Time(r.Intn(2_000_000))}
	}
	if sortedByArrival(unsorted) {
		t.Fatal("test workload came out sorted; change the seed")
	}

	// The pre-sorted equivalent: same flows ordered by arrival (stable),
	// IDs rewritten to match their new index.
	sorted := append([]workload.Flow(nil), unsorted...)
	for swapped := true; swapped; { // stable: bubble keeps equal-arrival order
		swapped = false
		for i := 1; i < len(sorted); i++ {
			if sorted[i].Arrival < sorted[i-1].Arrival {
				sorted[i], sorted[i-1] = sorted[i-1], sorted[i]
				swapped = true
			}
		}
	}
	for i := range sorted {
		sorted[i].ID = i
	}
	if !sortedByArrival(sorted) {
		t.Fatal("sort failed")
	}

	keep := append([]workload.Flow(nil), unsorted...)
	ru, err := Run(cfg, unsorted)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(unsorted, keep) {
		t.Error("fallback path mutated the caller's flow slice")
	}
	rs, err := Run(cfg, sorted)
	if err != nil {
		t.Fatal(err)
	}
	if ru.Completed != rs.Completed || ru.DeliveredBytes != rs.DeliveredBytes ||
		ru.SimTime != rs.SimTime || ru.GoodputNorm != rs.GoodputNorm {
		t.Errorf("unsorted input diverged from its sorted equivalent:\n%+v\n%+v", ru, rs)
	}
	if !reflect.DeepEqual(ru.FCTAll, rs.FCTAll) {
		t.Error("FCT observations diverge between the sorted and fallback paths")
	}
}

// TestEmptyWorkloadRejected pins the explicit validation of a zero-flow
// input (the pre-rewrite code would have indexed an empty slice).
func TestEmptyWorkloadRejected(t *testing.T) {
	cfg := Config{Endpoints: 4, EndpointRate: simtime.Gbps, Oversub: 1}
	if _, err := Run(cfg, nil); err == nil {
		t.Fatal("want an error for an empty workload")
	}
}
