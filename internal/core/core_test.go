package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

func testConfig(t *testing.T, nodes, ports, mult int) Config {
	t.Helper()
	sched, err := schedule.NewGrouped(nodes, ports, mult)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		Mode:          ModeRequestGrant,
		NormalizeRate: simtime.Rate(sched.Uplinks()/mult) * 50 * simtime.Gbps,
		Seed:          1,
	}
}

func genFlows(t *testing.T, nodes, count int, load float64, seed uint64) []workload.Flow {
	t.Helper()
	cfg := workload.DefaultConfig(nodes, 400*simtime.Gbps, load, count)
	cfg.Seed = seed
	flows, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

func TestSingleFlowDelivers(t *testing.T) {
	cfg := testConfig(t, 8, 4, 1)
	flows := []workload.Flow{{ID: 0, Src: 1, Dst: 5, Bytes: 2000, Arrival: 0}}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatalf("completed = %d, want 1", res.Completed)
	}
	if res.DeliveredBytes != 2000 {
		t.Errorf("delivered bytes = %d, want 2000", res.DeliveredBytes)
	}
	if res.FCTAll.Count() != 1 {
		t.Errorf("FCT count = %d", res.FCTAll.Count())
	}
	// The protocol costs a couple of epochs of startup: the FCT must be
	// at least 2 epochs and at most a few dozen (8-node fabric, epoch =
	// 4 slots x 100 ns).
	fct := res.FCTAll.Max() // ms
	if fct < 0.0008 || fct > 0.1 {
		t.Errorf("FCT = %v ms, implausible for 2 KB on an idle fabric", fct)
	}
}

func TestAllFlowsDeliverUniform(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	flows := genFlows(t, 16, 500, 0.5, 42)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	if res.DeliveredBytes != workload.TotalBytes(flows) {
		t.Errorf("delivered %d bytes, want %d", res.DeliveredBytes, workload.TotalBytes(flows))
	}
	if res.GoodputNorm <= 0 || res.GoodputNorm > 1.2 {
		t.Errorf("normalized goodput = %v, implausible", res.GoodputNorm)
	}
}

func TestIdealModeDelivers(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.Mode = ModeIdeal
	flows := genFlows(t, 16, 500, 0.5, 42)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
}

func TestIdealBeatsProtocolAtLowLoad(t *testing.T) {
	// §7/Fig. 9a: at low load SIRIUS (IDEAL) has lower FCT than SIRIUS
	// because flows skip the request/grant round trip (two epochs of
	// startup latency). Single-cell flows on a lightly loaded fabric make
	// the difference deterministic.
	wcfg := workload.DefaultConfig(16, 200*simtime.Gbps, 0.05, 400)
	wcfg.MeanFlowBytes = 400
	wcfg.ParetoShape = 1.5
	wcfg.Seed = 7
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, 16, 4, 1)
	real, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeIdeal
	ideal, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	rp50 := real.FCTShort.Percentile(50)
	ip50 := ideal.FCTShort.Percentile(50)
	if ip50 >= rp50 {
		t.Errorf("ideal p50 (%v ms) should beat protocol p50 (%v ms) at low load", ip50, rp50)
	}
	// The gap is roughly the two-epoch grant round trip (± a slot or two).
	epochMS := 4 * 100e-9 * 1e3
	if gap := rp50 - ip50; gap < epochMS || gap > 8*epochMS {
		t.Errorf("startup gap = %v ms, want around 2 epochs (%v ms)", gap, 2*epochMS)
	}
}

func TestQueueBoundRespected(t *testing.T) {
	// The congestion controller panics internally if the Q bound is ever
	// violated; additionally the peak aggregate node queue must be within
	// Q * (n-1) cells.
	cfg := testConfig(t, 16, 4, 1)
	cfg.Q = 4
	flows := genFlows(t, 16, 1500, 0.9, 3)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	maxCells := cfg.Q * 15
	if res.PeakNodeQueueBytes > maxCells*cfg.Slot.CellBytes {
		t.Errorf("peak node queue = %d bytes > bound %d", res.PeakNodeQueueBytes,
			maxCells*cfg.Slot.CellBytes)
	}
}

func TestHotspotThroughput(t *testing.T) {
	// DRRM-style request/grant achieves full throughput on hot-spot
	// traffic (§4.3): an incast of everyone to node 0 must drain at
	// roughly the destination's full downlink bandwidth.
	nodes := 16
	cfg := testConfig(t, nodes, 4, 1)
	wcfg := workload.DefaultConfig(nodes, 100*simtime.Gbps, 0.9, 300)
	wcfg.Pattern = workload.Incast
	wcfg.Seed = 5
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	// Node 0 receives on 4 uplinks x 50 Gbps = 200 Gbps of cell capacity;
	// goodput of the incast should be a large fraction of that.
	bits := float64(res.DeliveredBytes) * 8
	rate := bits / res.SimTime.Seconds()
	if rate < 0.3*200e9 {
		t.Errorf("incast drain rate = %.3g bps, want >= 30%% of 200G", rate)
	}
}

func TestReorderTracking(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.TrackReorder = true
	flows := genFlows(t, 16, 300, 0.7, 11)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-cell flows through random intermediates must show some
	// reordering, but bounded (small queues -> small reorder buffers).
	if res.PeakReorderBytes == 0 {
		t.Error("no reordering observed; VLB spreading should reorder cells")
	}
	if res.PeakReorderBytes > 1<<20 {
		t.Errorf("peak reorder buffer = %d bytes, implausibly large", res.PeakReorderBytes)
	}
}

func TestDirectFraction(t *testing.T) {
	// Intermediates are chosen uniformly, so ~1/(n-1) of cells go direct.
	cfg := testConfig(t, 16, 4, 1)
	flows := genFlows(t, 16, 1000, 0.5, 9)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.DirectFraction < 0.01 || res.DirectFraction > 0.25 {
		t.Errorf("direct fraction = %v, want around 1/15", res.DirectFraction)
	}
}

func TestRotorScheduleWorks(t *testing.T) {
	sched, err := schedule.NewRotor(12, 5) // k = 5*12/gcd... E=12, k=5
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		Mode:          ModeRequestGrant,
		NormalizeRate: 250 * simtime.Gbps,
		Seed:          2,
	}
	flows := genFlows(t, 12, 400, 0.5, 13)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
}

func TestLowLoadFCTNearMinimum(t *testing.T) {
	// On an idle fabric a short flow completes within a handful of
	// epochs: grant latency (2 epochs) + transmission + queuing.
	cfg := testConfig(t, 16, 4, 1)
	flows := []workload.Flow{{ID: 0, Src: 2, Dst: 9, Bytes: 500, Arrival: 0}}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	epochMS := (4 * 100e-9) * 1e3 // 4 slots x 100ns in ms
	fct := res.FCTAll.Max()
	if fct > 20*epochMS {
		t.Errorf("single-cell FCT = %v ms, want within ~20 epochs (%v ms)", fct, 20*epochMS)
	}
}

func TestConfigValidation(t *testing.T) {
	sched, _ := schedule.NewGrouped(8, 4, 1)
	good := Config{Schedule: sched, Slot: phy.DefaultSlot(), Q: 4,
		NormalizeRate: simtime.Gbps, Seed: 1}
	flows := []workload.Flow{{Src: 0, Dst: 1, Bytes: 100}}

	bad := good
	bad.Schedule = nil
	if _, err := Run(bad, flows); err == nil {
		t.Error("nil schedule accepted")
	}
	bad = good
	bad.Slot.CellBytes = 10
	if _, err := Run(bad, flows); err == nil {
		t.Error("cell smaller than header accepted")
	}
	bad = good
	bad.Q = 1
	if _, err := Run(bad, flows); err == nil {
		t.Error("Q=1 accepted")
	}
	bad = good
	bad.NormalizeRate = 0
	if _, err := Run(bad, flows); err == nil {
		t.Error("zero normalize rate accepted")
	}
	if _, err := Run(good, []workload.Flow{{Src: 0, Dst: 0, Bytes: 1}}); err == nil {
		t.Error("self flow accepted")
	}
	if _, err := Run(good, []workload.Flow{{Src: 0, Dst: 99, Bytes: 1}}); err == nil {
		t.Error("out-of-range flow accepted")
	}
	bad = good
	bad.MaxSlots = 2
	if _, err := Run(bad, []workload.Flow{{Src: 0, Dst: 1, Bytes: 1 << 20}}); err == nil {
		t.Error("slot cap not enforced")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	flows := genFlows(t, 16, 300, 0.6, 21)
	a, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, genFlows(t, 16, 300, 0.6, 21))
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.DeliveredBytes != b.DeliveredBytes ||
		a.Slots != b.Slots || a.DirectFraction != b.DirectFraction {
		t.Error("same seed produced different results")
	}
}

func TestIdleGapSkipping(t *testing.T) {
	// Two flows separated by a long idle gap: the simulator must not
	// grind through millions of idle slots.
	cfg := testConfig(t, 8, 4, 1)
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 3, Bytes: 100, Arrival: 0},
		{ID: 1, Src: 1, Dst: 4, Bytes: 100, Arrival: simtime.Time(10 * simtime.Millisecond)},
	}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatalf("completed %d", res.Completed)
	}
	// 10 ms of 100 ns slots is 100,000 slots; with skipping the loop
	// should execute only a tiny fraction.
	if res.Slots > 110_000 {
		t.Errorf("simulated %d slot iterations; idle skipping broken", res.Slots)
	}
	// FCT of the second flow must still be small (measured from its own
	// arrival).
	if res.FCTAll.Max() > 0.05 {
		t.Errorf("FCT = %v ms; arrival-relative timing broken", res.FCTAll.Max())
	}
}

func TestPropertyConservation(t *testing.T) {
	// For random small workloads: every byte offered is delivered and the
	// sim terminates, in every mode, on a grouped schedule and on a rotor
	// that connects one pair on three uplinks in a slot.
	grouped, err := schedule.NewGrouped(8, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rotor, err := schedule.NewRotor(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []struct {
		name  string
		sched schedule.Schedule
	}{{"grouped", grouped}, {"rotor", rotor}} {
		for _, mode := range []Mode{ModeRequestGrant, ModeIdeal, ModeDirect} {
			f := func(seed uint64, loadRaw uint8) bool {
				load := 0.2 + float64(loadRaw%7)*0.1
				wcfg := workload.DefaultConfig(8, 200*simtime.Gbps, load, 60)
				wcfg.Seed = seed
				wcfg.MeanFlowBytes = 20e3
				flows, err := workload.Generate(wcfg)
				if err != nil {
					return false
				}
				res, err := Run(Config{
					Schedule:      sc.sched,
					Slot:          phy.DefaultSlot(),
					Q:             3,
					Mode:          mode,
					NormalizeRate: 100 * simtime.Gbps,
					Seed:          seed,
				}, flows)
				if err != nil {
					return false
				}
				return res.Completed == len(flows) &&
					res.DeliveredBytes == workload.TotalBytes(flows)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Errorf("%s schedule, mode %d: %v", sc.name, mode, err)
			}
		}
	}
}

func TestFifo(t *testing.T) {
	var q fifo[int32]
	var p pool[int32]
	if !q.empty() || q.len() != 0 {
		t.Fatal("zero fifo not empty")
	}
	for i := int32(0); i < 1000; i++ {
		q.push(i, &p)
	}
	for i := int32(0); i < 500; i++ {
		if got := q.pop(&p); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	for i := int32(1000); i < 2000; i++ {
		q.push(i, &p)
	}
	for i := int32(500); i < 2000; i++ {
		if got := q.pop(&p); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
	if !q.empty() {
		t.Error("fifo not drained")
	}
}

// driveFifos runs ops against k fifos and k LOCAL run queues that all
// share one pool, as the core's VOQs, forward queues and LOCAL queues
// do, and against a slice model of each. An op's high bit pops (when
// the queue holds a cell) instead of pushing, bit 6 picks a run queue
// over a fifo, bit 5 picks which of two flows a run-queue push carries
// (so runs merge and split), and the low five bits pick the queue. After
// every op every queue must hold exactly its model's values, so a link
// that strays into another queue's chain fails. At the end the pool must
// hold no more cells than were ever in use at once (one per fifo entry,
// one per run), all of them on the free list.
func driveFifos(k int, ops []byte) error {
	var p pool[int64]
	fifos, runs := make([]fifo[int64], k), make([]runQueue, k)
	fifoModel, runModel := make([][]int64, k), make([][]int32, k)
	var next int64
	inUse, peak := 0, 0
	for i, op := range ops {
		q, pop := int(op&0x1f)%k, op&0x80 != 0
		switch {
		case op&0x40 == 0 && (!pop || len(fifoModel[q]) == 0):
			fifos[q].push(next, &p)
			fifoModel[q] = append(fifoModel[q], next)
			next++
		case op&0x40 == 0:
			if got := fifos[q].pop(&p); got != fifoModel[q][0] {
				return fmt.Errorf("op %d: fifo %d popped %d, want %d", i, q, got, fifoModel[q][0])
			}
			fifoModel[q] = fifoModel[q][1:]
		case !pop || len(runModel[q]) == 0:
			f, count := int32(op>>5&1), int32(1+i%3)
			runs[q].push(f, count, &p)
			for c := int32(0); c < count; c++ {
				runModel[q] = append(runModel[q], f)
			}
		default:
			if got := runs[q].pop(&p); got != runModel[q][0] {
				return fmt.Errorf("op %d: run queue %d popped flow %d, want %d", i, q, got, runModel[q][0])
			}
			runModel[q] = runModel[q][1:]
		}
		inUse = 0
		for j := 0; j < k; j++ {
			got := queued(fifos[j], &p)
			if fifos[j].len() != len(fifoModel[j]) || !slices.Equal(got, fifoModel[j]) {
				return fmt.Errorf("op %d: fifo %d holds %v (len %d), want %v", i, j, got, fifos[j].len(), fifoModel[j])
			}
			flows := localFlows(runs[j], &p)
			if runs[j].len() != len(runModel[j]) || !slices.Equal(flows, runModel[j]) {
				return fmt.Errorf("op %d: run queue %d holds %v (len %d), want %v", i, j, flows, runs[j].len(), runModel[j])
			}
			inUse += len(fifoModel[j])
			for c := range runModel[j] {
				if c == 0 || runModel[j][c] != runModel[j][c-1] {
					inUse++ // each run of one flow takes one pool cell
				}
			}
		}
		peak = max(peak, inUse)
	}
	for j := 0; j < k; j++ {
		for len(fifoModel[j]) > 0 {
			if got := fifos[j].pop(&p); got != fifoModel[j][0] {
				return fmt.Errorf("drain: fifo %d popped %d, want %d", j, got, fifoModel[j][0])
			}
			fifoModel[j] = fifoModel[j][1:]
		}
		for len(runModel[j]) > 0 {
			if got := runs[j].pop(&p); got != runModel[j][0] {
				return fmt.Errorf("drain: run queue %d popped flow %d, want %d", j, got, runModel[j][0])
			}
			runModel[j] = runModel[j][1:]
		}
		if !fifos[j].empty() || !runs[j].empty() {
			return fmt.Errorf("drain: queue %d still holds %d + %d cells", j, fifos[j].len(), runs[j].len())
		}
	}
	free := 0
	for c := p.free; c != 0; c = p.cells[c].next {
		if free++; free > peak {
			break
		}
	}
	if held := max(len(p.cells)-1, 0); held != peak || free != peak {
		return fmt.Errorf("pool holds %d cells, %d of them free, after a peak of %d in use", held, free, peak)
	}
	return nil
}

func TestFifoPropertyOrder(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ops := make([]byte, 1000)
		for i := range ops {
			ops[i] = byte(r.Intn(5)) | byte(r.Intn(4))<<5
			if r.Float64() >= 0.55 {
				ops[i] |= 0x80
			}
		}
		if err := driveFifos(5, ops); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzFifos searches for op sequences that break queues sharing a pool.
func FuzzFifos(f *testing.F) {
	f.Add(uint8(1), []byte{0, 0, 0x80, 0, 0x80, 0x80})
	f.Add(uint8(3), []byte{0, 1, 2, 0x80, 1, 0x81, 0x82, 2, 0, 0x80, 0x80})
	f.Add(uint8(7), []byte{6, 5, 4, 3, 0x86, 0x83, 6, 0x86, 0x86, 0x85, 4, 0x84, 0x84})
	f.Add(uint8(2), []byte{0x40, 0x40, 0x60, 0x41, 0, 0xc0, 0x40, 0xc0, 0xc0, 0xc1, 0x61, 0xe1, 0x80, 0xc0})
	f.Fuzz(func(t *testing.T, k uint8, ops []byte) {
		if err := driveFifos(1+int(k)%8, ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueStateHoldsNoPointers pins the layout the n² state relies on:
// a pair costs 40 bytes (its LOCAL run queue and its txPair), and
// neither those nor the pool cells hold a pointer for the GC to scan.
func TestQueueStateHoldsNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			return false
		}
		return true
	}
	for _, c := range []struct {
		v    any
		size uintptr
	}{
		{runQueue{}, 12},
		{txPair{}, 28},
		{fifo[int32]{}, 12},
		{poolCell[int32]{}, 8},
		{poolCell[int64]{}, 16},
	} {
		typ := reflect.TypeOf(c.v)
		if hasPointers(typ) {
			t.Errorf("%v holds a pointer", typ)
		}
		if typ.Size() != c.size {
			t.Errorf("%v is %d bytes, want %d", typ, typ.Size(), c.size)
		}
	}
}

func TestCellRefPacking(t *testing.T) {
	f := func(flow int32, seq int32) bool {
		gf, gs := unpackRef(cellRef(flow, seq))
		return gf == flow && gs == seq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pop from empty fifo did not panic")
		}
	}()
	var q fifo[int32]
	var p pool[int32]
	q.pop(&p)
}

func TestFailedNodesDetour(t *testing.T) {
	// A failed node costs proportional bandwidth but traffic among
	// survivors still flows.
	cfg := testConfig(t, 16, 4, 1)
	sched, err := schedule.NewDegraded(cfg.Schedule, []int{5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule = sched
	cfg.FailedNodes = []int{5}
	var flows []workload.Flow
	id := 0
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			if src == dst || src == 5 || dst == 5 {
				continue
			}
			flows = append(flows, workload.Flow{ID: id, Src: src, Dst: dst, Bytes: 5000})
			id++
		}
	}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d with a failed node", res.Completed, len(flows))
	}
}

func TestFailedNodeFlowRejected(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.FailedNodes = []int{3}
	if _, err := Run(cfg, []workload.Flow{{Src: 3, Dst: 1, Bytes: 10}}); err == nil {
		t.Error("flow from failed node accepted")
	}
	if _, err := Run(cfg, []workload.Flow{{Src: 1, Dst: 3, Bytes: 10}}); err == nil {
		t.Error("flow to failed node accepted")
	}
	cfg.FailedNodes = []int{99}
	if _, err := Run(cfg, nil); err == nil {
		t.Error("out-of-range failed node accepted")
	}
}

func TestNoDirectAblation(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.NoDirect = true
	flows := genFlows(t, 16, 400, 0.5, 17)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	if res.DirectFraction != 0 {
		t.Errorf("direct fraction = %v with NoDirect", res.DirectFraction)
	}
}

func TestInstantControlAblation(t *testing.T) {
	// Oracle control removes the two-epoch startup: a single-cell flow
	// completes strictly faster.
	cfg := testConfig(t, 16, 4, 1)
	flows := []workload.Flow{{ID: 0, Src: 2, Dst: 9, Bytes: 500, Arrival: 0}}
	slow, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg.InstantControl = true
	fast, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if fast.FCTAll.Max() >= slow.FCTAll.Max() {
		t.Errorf("instant control FCT %v not below piggybacked %v",
			fast.FCTAll.Max(), slow.FCTAll.Max())
	}
}

func TestIdealModeWithFailures(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	sched, err := schedule.NewDegraded(cfg.Schedule, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Schedule = sched
	cfg.FailedNodes = []int{2}
	cfg.Mode = ModeIdeal
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 1, Bytes: 100_000}}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatal("flow incomplete with failed node in ideal mode")
	}
}

func TestDirectModeUniformStillDelivers(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.Mode = ModeDirect
	flows := genFlows(t, 16, 300, 0.3, 31)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	if res.DirectFraction != 1 {
		t.Errorf("direct fraction = %v, want 1 in direct mode", res.DirectFraction)
	}
}

func TestVLBBeatsDirectOnSkewedTraffic(t *testing.T) {
	// §4.1/§4.2: direct routing caps a pair at k/N of the node bandwidth;
	// VLB spreads a single big transfer across all intermediates. One
	// 2 MB flow finishes far faster with detouring.
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 9, Bytes: 2 << 20, Arrival: 0}}
	cfg := testConfig(t, 16, 4, 1)
	vlb, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeDirect
	direct, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	speedup := direct.FCTAll.Max() / vlb.FCTAll.Max()
	// A 16-node fabric gives VLB up to ~15x more slots for one pair;
	// protocol overheads eat some of it, but the win must be large.
	if speedup < 4 {
		t.Errorf("VLB speedup over direct = %.1fx, want >= 4x", speedup)
	}
}

func TestElephantExceedsBaseBandwidth(t *testing.T) {
	// With k=3 pair-connections per epoch (1.5x-style provisioning via a
	// rotor), a single flow must sustain more than the baseline node
	// bandwidth — the extra uplinks are usable by one destination.
	sched, err := schedule.NewRotor(16, 6) // E=8, k=3
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		Mode:          ModeRequestGrant,
		NormalizeRate: 200 * simtime.Gbps, // baseline = 4x50G
		Seed:          5,
	}
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 9, Bytes: 4 << 20, Arrival: 0}}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(res.DeliveredBytes) * 8 / res.SimTime.Seconds()
	if rate < 150e9 {
		t.Errorf("elephant rate = %.3g bps, want a large fraction of 300G provisioned", rate)
	}
}

func TestInjectRatePacesFlows(t *testing.T) {
	// A 200-cell flow at 2 cells/slot takes at least 100 slots to even
	// enter LOCAL, so its FCT is floored by the intra-rack tier.
	cfg := testConfig(t, 16, 4, 1)
	cfg.InjectRate = 2
	bytes := 200 * 542
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 9, Bytes: bytes}}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 1 {
		t.Fatal("flow incomplete")
	}
	floorMS := 100 * 100e-9 * 1e3 // 100 slots of ~100ns
	if got := res.FCTAll.Max(); got < floorMS {
		t.Errorf("FCT %v ms below the injection floor %v ms", got, floorMS)
	}
	// Without pacing the same flow is much faster.
	cfg.InjectRate = 0
	fast, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if fast.FCTAll.Max() >= res.FCTAll.Max() {
		t.Error("pacing did not slow the flow down")
	}
}

func TestLocalCapBoundsOccupancy(t *testing.T) {
	// With a LOCAL cap, occupancy never exceeds it even under a burst of
	// many flows; everything still delivers (lossless back-pressure).
	cfg := testConfig(t, 16, 4, 1)
	cfg.InjectRate = 8
	cfg.LocalCap = 32
	flows := genFlows(t, 16, 600, 0.9, 77)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	if res.DeliveredBytes != workload.TotalBytes(flows) {
		t.Error("bytes lost under LOCAL cap")
	}
}

func TestLocalCapNeedsInjectRate(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	cfg.LocalCap = 16
	if _, err := Run(cfg, nil); err == nil {
		t.Error("LocalCap without InjectRate accepted")
	}
	cfg.InjectRate = -1
	if _, err := Run(cfg, nil); err == nil {
		t.Error("negative InjectRate accepted")
	}
}

func TestInjectRateFairAcrossFlows(t *testing.T) {
	// Two flows from one node: round-robin injection means the small one
	// is not stuck behind the big one (no FIFO HoL at the rack tier).
	cfg := testConfig(t, 16, 4, 1)
	cfg.InjectRate = 2
	big := 500 * 542
	small := 5 * 542
	flows := []workload.Flow{
		{ID: 0, Src: 0, Dst: 9, Bytes: big},
		{ID: 1, Src: 0, Dst: 10, Bytes: small},
	}
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 2 {
		t.Fatal("incomplete")
	}
	// The small flow (5 cells at >=1 cell/slot effective share) must
	// finish far sooner than the big one.
	if res.FCTAll.Min() > res.FCTAll.Max()/5 {
		t.Errorf("small flow FCT %v too close to big flow FCT %v",
			res.FCTAll.Min(), res.FCTAll.Max())
	}
}

func TestSlowdownMetric(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	flows := genFlows(t, 16, 300, 0.4, 55)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slowdown.Count() != len(flows) {
		t.Fatalf("slowdown count = %d", res.Slowdown.Count())
	}
	// No flow can beat the ideal full-bandwidth transmission.
	if res.Slowdown.Min() < 1 {
		t.Errorf("min slowdown = %v < 1", res.Slowdown.Min())
	}
	// The median is within a sane factor at light load.
	if res.Slowdown.Percentile(50) > 1000 {
		t.Errorf("median slowdown = %v, implausible", res.Slowdown.Percentile(50))
	}
}

func TestPermutationTrafficVLB(t *testing.T) {
	// Permutation traffic — each node sends to exactly one other — is
	// pathological for direct TDMA routing (each pair owns only k/N of
	// the bandwidth) and exactly what VLB fixes. With VLB the fixed
	// permutation drains near node bandwidth; direct-only crawls.
	nodes := 16
	wcfg := workload.DefaultConfig(nodes, 200*simtime.Gbps, 0.7, 400)
	wcfg.Pattern = workload.Permutation
	wcfg.Seed = 4
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, nodes, 4, 1)
	vlb, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = ModeDirect
	direct, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if vlb.GoodputNorm < 3*direct.GoodputNorm {
		t.Errorf("VLB goodput %v should be >= 3x direct-only %v on permutation traffic",
			vlb.GoodputNorm, direct.GoodputNorm)
	}
}

func TestIdealModeWithInjectRate(t *testing.T) {
	// The intra-rack pacing composes with the ideal back-pressure mode.
	cfg := testConfig(t, 16, 4, 1)
	cfg.Mode = ModeIdeal
	cfg.InjectRate = 4
	cfg.LocalCap = 64
	flows := genFlows(t, 16, 300, 0.6, 23)
	res, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
}

func TestRunContextCancel(t *testing.T) {
	cfg := testConfig(t, 16, 4, 1)
	flows := genFlows(t, 16, 2000, 0.9, 1)

	// Already-cancelled context: the run aborts at the first epoch
	// boundary and reports the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, cfg, flows); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}

	// A live context behaves exactly like Run.
	want, err := Run(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	if got.Completed != want.Completed || got.DeliveredBytes != want.DeliveredBytes ||
		got.Slots != want.Slots {
		t.Errorf("RunContext diverged from Run: %+v vs %+v", got, want)
	}
}
