package sirius

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestDefaultConfigShape(t *testing.T) {
	c := DefaultConfig(64)
	if c.Nodes != 64 || c.GratingPorts != 8 {
		t.Fatalf("config = %+v", c)
	}
	if c.BaseUplinks() != 8 {
		t.Errorf("base uplinks = %d, want 8", c.BaseUplinks())
	}
	if c.Uplinks() != 12 {
		t.Errorf("uplinks at 1.5x = %d, want 12", c.Uplinks())
	}
	if c.NodeBandwidth().Gbit() != 400 {
		t.Errorf("node bandwidth = %v Gbps, want 400", c.NodeBandwidth().Gbit())
	}
}

func TestDefaultConfigSmallAndOdd(t *testing.T) {
	// Node counts that don't divide nicely still produce valid configs.
	for _, n := range []int{4, 6, 10, 12, 30, 100} {
		c := DefaultConfig(n)
		if c.Nodes%c.GratingPorts != 0 {
			t.Errorf("nodes %d: grating ports %d do not divide", n, c.GratingPorts)
		}
		if _, err := c.buildSchedule(); err != nil {
			t.Errorf("nodes %d: %v", n, err)
		}
	}
}

func TestEndToEndSmall(t *testing.T) {
	c := DefaultConfig(16)
	c.Seed = 3
	flows := Workload(c, 0.4, 300, 5)
	rep, err := c.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(flows) {
		t.Fatalf("completed %d of %d", rep.Completed, len(flows))
	}
	if rep.System != "SIRIUS" {
		t.Errorf("system = %q", rep.System)
	}
	if rep.ShortFCTP99 <= 0 {
		t.Error("no short-flow FCT reported")
	}
	if !strings.Contains(rep.String(), "SIRIUS") {
		t.Error("String() missing system name")
	}
}

func TestIdealVariant(t *testing.T) {
	c := DefaultConfig(16)
	c.Ideal = true
	rep, err := c.Run(Workload(c, 0.3, 150, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.System != "SIRIUS (IDEAL)" {
		t.Errorf("system = %q", rep.System)
	}
	if rep.Completed != 150 {
		t.Errorf("completed = %d", rep.Completed)
	}
}

func TestESNBaselines(t *testing.T) {
	c := DefaultConfig(16)
	flows := Workload(c, 0.5, 400, 9)
	ideal, err := c.RunESN(flows, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	osub, err := c.RunESN(flows, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ideal.System != "ESN (Ideal)" || !strings.Contains(osub.System, "OSUB") {
		t.Errorf("names: %q / %q", ideal.System, osub.System)
	}
	if osub.Goodput >= ideal.Goodput {
		t.Errorf("oversubscribed goodput %v should be below ideal %v",
			osub.Goodput, ideal.Goodput)
	}
	if osub.ShortFCTP99 <= ideal.ShortFCTP99 {
		t.Error("oversubscribed tail FCT should be worse")
	}
}

func TestSiriusTracksESNIdeal(t *testing.T) {
	// The paper's central claim at a small scale: Sirius with 1.5x
	// uplinks achieves goodput comparable to the non-blocking ESN.
	c := DefaultConfig(32)
	flows := Workload(c, 0.6, 1500, 4)
	sir, err := c.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	esn, err := c.RunESN(flows, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sir.Goodput < esn.Goodput*0.7 {
		t.Errorf("Sirius goodput %v too far below ESN %v", sir.Goodput, esn.Goodput)
	}
}

func TestFractionalMultiplierUsesRotor(t *testing.T) {
	c := DefaultConfig(64)
	c.UplinkMultiplier = 1.5 // 12 uplinks, 8 groups: not an integer plane count
	sched, err := c.buildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Uplinks() != 12 {
		t.Errorf("uplinks = %d, want 12", sched.Uplinks())
	}
	c.UplinkMultiplier = 2
	sched, err = c.buildSchedule()
	if err != nil {
		t.Fatal(err)
	}
	if sched.Uplinks() != 16 {
		t.Errorf("uplinks = %d, want 16", sched.Uplinks())
	}
}

func TestConfigErrors(t *testing.T) {
	c := DefaultConfig(16)
	c.GratingPorts = 3
	if _, err := c.Run(nil); err == nil {
		t.Error("non-dividing grating ports accepted")
	}
	c = DefaultConfig(16)
	c.UplinkMultiplier = 0.5
	if _, err := c.Run(nil); err == nil {
		t.Error("sub-1 multiplier accepted")
	}
	// The request/grant controller counts each pair's cells in 16 bits.
	c = DefaultConfig(16)
	c.QueueBound = math.MaxInt16 + 1
	if _, err := c.Run(Workload(c, 0.4, 50, 1)); err == nil {
		t.Error("queue bound beyond 16-bit pair counters accepted")
	}
}

func TestWorkloadProperties(t *testing.T) {
	c := DefaultConfig(16)
	flows := Workload(c, 0.5, 500, 7)
	if len(flows) != 500 {
		t.Fatalf("got %d flows", len(flows))
	}
	var prev time.Duration
	for _, f := range flows {
		if f.Src == f.Dst || f.Src < 0 || f.Src >= 16 || f.Dst < 0 || f.Dst >= 16 {
			t.Fatalf("bad endpoints %d->%d", f.Src, f.Dst)
		}
		if f.Arrival < prev {
			t.Fatal("arrivals unsorted")
		}
		prev = f.Arrival
	}
}

func TestRackTierSlowsIngress(t *testing.T) {
	c := DefaultConfig(16)
	flows := Workload(c, 0.6, 400, 3)
	fast, err := c.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	// 24 servers at 10G each: 240G aggregate < 400G node bandwidth, so
	// the rack tier becomes the bottleneck and stretches completion.
	c.Rack = &RackTier{Servers: 24, ServerRate: 10e9}
	slow, err := c.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Completed != len(flows) {
		t.Fatalf("completed %d of %d", slow.Completed, len(flows))
	}
	if slow.SimTime <= fast.SimTime {
		t.Errorf("rack tier (%v) did not slow ingress vs %v", slow.SimTime, fast.SimTime)
	}
}

func TestRackTierValidation(t *testing.T) {
	c := DefaultConfig(16)
	c.Rack = &RackTier{Servers: 0, ServerRate: 1e9}
	if _, err := c.Run(nil); err == nil {
		t.Error("bad rack tier accepted")
	}
}

func TestParallelPlanesRelieveOverload(t *testing.T) {
	// Offered load sized for one fabric at 100%: striping it over two
	// planes halves each plane's load, so tail FCT drops and the
	// aggregate-normalized goodput roughly halves.
	c := DefaultConfig(16)
	flows := Workload(c, 1.0, 800, 13)
	single, err := c.Run(flows)
	if err != nil {
		t.Fatal(err)
	}
	dual, err := c.RunParallel(flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if dual.Completed != len(flows) {
		t.Fatalf("completed %d of %d", dual.Completed, len(flows))
	}
	if dual.ShortFCTP99 >= single.ShortFCTP99 {
		t.Errorf("two planes p99 %v not below one plane %v",
			dual.ShortFCTP99, single.ShortFCTP99)
	}
	if dual.Goodput >= single.Goodput {
		t.Errorf("aggregate-normalized goodput %v should drop vs %v (same load, double capacity)",
			dual.Goodput, single.Goodput)
	}
	if dual.System != "SIRIUS x2 planes" {
		t.Errorf("system = %q", dual.System)
	}
}

// TestParallelPlanesKeepRackTierAndReorder runs every plane with the
// configuration Run builds: a slow rack tier slows the planes' ingress,
// and reorder tracking reports the planes' largest buffer.
func TestParallelPlanesKeepRackTierAndReorder(t *testing.T) {
	c := DefaultConfig(32)
	c.TrackReorder = true
	flows := Workload(c, 0.8, 600, 1)
	fast, err := c.RunParallel(flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fast.PeakReorderBytes == 0 {
		t.Error("two planes with reorder tracking report no reorder buffer")
	}
	// 4 servers at 10G: 40G aggregate against 400G of node bandwidth.
	c.Rack = &RackTier{Servers: 4, ServerRate: 10 * Gbps}
	slow, err := c.RunParallel(flows, 2)
	if err != nil {
		t.Fatal(err)
	}
	if slow.FCTP99 <= fast.FCTP99 {
		t.Errorf("rack tier left the two planes' p99 FCT at %v (without it %v)", slow.FCTP99, fast.FCTP99)
	}
}

func TestParallelPlanesValidation(t *testing.T) {
	c := DefaultConfig(16)
	if _, err := c.RunParallel(nil, 0); err == nil {
		t.Error("0 planes accepted")
	}
	if _, err := c.RunParallel([]Flow{{Src: 99, Dst: 1, Bytes: 1}}, 2); err == nil {
		t.Error("bad source accepted")
	}
	bad := c
	bad.Rack = &RackTier{Servers: 0, ServerRate: 1e9}
	if _, err := bad.RunParallel(Workload(c, 0.3, 50, 1), 2); err == nil {
		t.Error("bad rack tier accepted by two planes")
	}
	// planes=1 falls through to Run.
	rep, err := c.RunParallel(Workload(c, 0.3, 50, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.System != "SIRIUS" {
		t.Errorf("system = %q", rep.System)
	}
}

func TestReportSlowdown(t *testing.T) {
	c := DefaultConfig(16)
	rep, err := c.Run(Workload(c, 0.4, 200, 6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.SlowdownP50 < 1 {
		t.Errorf("p50 slowdown = %v < 1", rep.SlowdownP50)
	}
	if rep.SlowdownP99 < rep.SlowdownP50 {
		t.Error("p99 slowdown below p50")
	}
}

func TestAllToAllAndBroadcastWorkloads(t *testing.T) {
	c := DefaultConfig(8)
	a2a, err := AllToAllWorkload(c, 5000, 2, time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(a2a) != 2*8*7 {
		t.Fatalf("all-to-all flows = %d", len(a2a))
	}
	rep, err := c.Run(a2a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != len(a2a) {
		t.Fatalf("completed %d of %d", rep.Completed, len(a2a))
	}
	bc, err := BroadcastWorkload(c, 3, 2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bc) != 7 {
		t.Fatalf("broadcast flows = %d", len(bc))
	}
	if _, err := BroadcastWorkload(c, 99, 1, 0); err == nil {
		t.Error("bad broadcast source accepted")
	}
}

func TestRateAlias(t *testing.T) {
	c := DefaultConfig(16)
	c.LineRate = 100 * Gbps
	if c.NodeBandwidth() != 800*Gbps {
		t.Errorf("node bandwidth = %v", c.NodeBandwidth())
	}
	var r Rate = 1.6 * Tbps
	if r.Gbit() != 1600 {
		t.Errorf("Gbit = %v", r.Gbit())
	}
}
