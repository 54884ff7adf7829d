package dc

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// TestParallelMatchesSerial pins run isolation, which `-exp servers
// -parallel N` relies on: several Runs executing at once over one shared
// flow slice each return Results deep-equal to a lone run — not just
// summary statistics, but every FCT observation in the same order, so
// percentiles, CDFs and goodput are byte-identical downstream.
func TestParallelMatchesSerial(t *testing.T) {
	c := smallConfig()
	flows := serverFlows(t, c, 1000, 17)

	want, err := RunContext(context.Background(), c, flows)
	if err != nil {
		t.Fatal(err)
	}
	if want.IntraRack == 0 || want.InterRack == 0 {
		t.Fatalf("workload must mix traffic (intra %d, inter %d)", want.IntraRack, want.InterRack)
	}
	const runs = 4
	got := make([]*Results, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = RunContext(context.Background(), c, flows)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("concurrent run %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("concurrent run %d diverges from a lone run:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
}

// TestParallelCancellation checks that the rack loop aborts with the
// context's error instead of returning partial results.
func TestParallelCancellation(t *testing.T) {
	c := smallConfig()
	// Intra-rack only, so cancellation must surface from the rack loop
	// itself rather than the fabric simulation.
	var flows []workload.Flow
	var at simtime.Time
	for i := 0; i < 4000; i++ {
		at = at.Add(500 * simtime.Nanosecond)
		rack := i % c.Racks
		base := rack * c.ServersPerRack
		flows = append(flows, workload.Flow{ID: i, Src: base + i%c.ServersPerRack,
			Dst: base + (i+1)%c.ServersPerRack, Bytes: 50_000, Arrival: at})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, c, flows); err != context.Canceled {
		t.Errorf("want context.Canceled, got %v", err)
	}
}

// TestCountersAdvance checks the process-wide dc counters move when a
// run completes.
func TestCountersAdvance(t *testing.T) {
	f0, r0 := Counters()
	c := smallConfig()
	res, err := RunContext(context.Background(), c, serverFlows(t, c, 200, 8))
	if err != nil {
		t.Fatal(err)
	}
	f1, r1 := Counters()
	if f1-f0 != int64(res.Completed) {
		t.Errorf("flow counter advanced by %d, want %d", f1-f0, res.Completed)
	}
	if r1-r0 <= 0 {
		t.Errorf("rack-run counter did not advance (%d -> %d)", r0, r1)
	}
}
