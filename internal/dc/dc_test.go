package dc

import (
	"context"
	"testing"

	"sirius/internal/rng"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

func smallConfig() Config {
	c := DefaultConfig(16)
	c.ServersPerRack = 4
	c.ServerRate = 50 * simtime.Gbps
	return c
}

// serverFlows builds a uniform server-level workload.
func serverFlows(t *testing.T, c Config, n int, seed uint64) []workload.Flow {
	t.Helper()
	r := rng.New(seed)
	servers := c.Servers()
	flows := make([]workload.Flow, n)
	var at simtime.Time
	for i := range flows {
		at = at.Add(simtime.Duration(r.Intn(2000)) * simtime.Nanosecond)
		src := r.Intn(servers)
		dst := r.Intn(servers - 1)
		if dst >= src {
			dst++
		}
		flows[i] = workload.Flow{ID: i, Src: src, Dst: dst,
			Bytes: 1000 + r.Intn(60000), Arrival: at}
	}
	return flows
}

func TestRunMixedTraffic(t *testing.T) {
	c := smallConfig()
	flows := serverFlows(t, c, 800, 3)
	res, err := RunContext(context.Background(), c, flows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
	if res.IntraRack == 0 || res.InterRack == 0 {
		t.Fatalf("expected both traffic classes, got intra=%d inter=%d",
			res.IntraRack, res.InterRack)
	}
	if res.IntraRack+res.InterRack != len(flows) {
		t.Error("partition does not cover all flows")
	}
	if res.FCTAll.Count() != len(flows) {
		t.Errorf("FCT count %d != %d flows", res.FCTAll.Count(), len(flows))
	}
	if res.ServerGoodput <= 0 || res.ServerGoodput > 1.2 {
		t.Errorf("server goodput = %v", res.ServerGoodput)
	}
}

func TestIntraRackFasterThanInterRack(t *testing.T) {
	// Same size transfer: staying inside the rack avoids the fabric
	// epoch and grant latency entirely.
	c := smallConfig()
	const bytes = 20_000
	intra := []workload.Flow{{ID: 0, Src: 0, Dst: 1, Bytes: bytes}}
	inter := []workload.Flow{{ID: 0, Src: 0, Dst: c.ServersPerRack, Bytes: bytes}}
	ri, err := RunContext(context.Background(), c, intra)
	if err != nil {
		t.Fatal(err)
	}
	re, err := RunContext(context.Background(), c, inter)
	if err != nil {
		t.Fatal(err)
	}
	if ri.IntraRack != 1 || re.InterRack != 1 {
		t.Fatal("misclassified flows")
	}
	if ri.FCTAll.Max() >= re.FCTAll.Max() {
		t.Errorf("intra-rack FCT %v not below inter-rack %v",
			ri.FCTAll.Max(), re.FCTAll.Max())
	}
}

func TestServerNICFloor(t *testing.T) {
	// A big inter-rack flow from one server cannot beat its own NIC:
	// 1 MB at 50 Gbps is 160 us even though the rack uplinks are faster.
	c := smallConfig()
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: c.ServersPerRack, Bytes: 1 << 20}}
	res, err := RunContext(context.Background(), c, flows)
	if err != nil {
		t.Fatal(err)
	}
	floorMS := float64((1<<20)*8) / 50e9 * 1e3
	if got := res.FCTAll.Max(); got < floorMS {
		t.Errorf("FCT %v ms beat the server NIC floor %v ms", got, floorMS)
	}
}

func TestLocalStaysBounded(t *testing.T) {
	c := smallConfig()
	c.LocalCells = 48
	flows := serverFlows(t, c, 1500, 9)
	res, err := RunContext(context.Background(), c, flows)
	if err != nil {
		t.Fatal(err)
	}
	cell := c.Slot.CellBytes
	if res.PeakLocalBytes > 0 && res.PeakLocalBytes > 48*cell*16 {
		// PeakLocalBytes reports the fabric-side queue peak; LOCAL proper
		// is enforced inside core (panic on violation). This is a sanity
		// ceiling only.
		t.Errorf("implausible peak %d", res.PeakLocalBytes)
	}
	if res.Completed != len(flows) {
		t.Fatalf("completed %d of %d", res.Completed, len(flows))
	}
}

func TestValidation(t *testing.T) {
	good := smallConfig()
	flows := []workload.Flow{{ID: 0, Src: 0, Dst: 5, Bytes: 10}}
	bad := good
	bad.Racks = 1
	if _, err := RunContext(context.Background(), bad, flows); err == nil {
		t.Error("1 rack accepted")
	}
	bad = good
	bad.GratingPorts = 3
	if _, err := RunContext(context.Background(), bad, flows); err == nil {
		t.Error("non-dividing gratings accepted")
	}
	bad = good
	bad.ServerRate = 0
	if _, err := RunContext(context.Background(), bad, flows); err == nil {
		t.Error("zero server rate accepted")
	}
	if _, err := RunContext(context.Background(), good, []workload.Flow{{ID: 0, Src: 0, Dst: 0, Bytes: 1}}); err == nil {
		t.Error("self flow accepted")
	}
	if _, err := RunContext(context.Background(), good, []workload.Flow{{ID: 5, Src: 0, Dst: 1, Bytes: 1}}); err == nil {
		t.Error("bad flow ID accepted")
	}
}

func TestDefaultConfigShapes(t *testing.T) {
	c := DefaultConfig(128)
	if c.GratingPorts != 16 || c.ServersPerRack != 24 {
		t.Errorf("paper-scale defaults wrong: %+v", c)
	}
	if c.Servers() != 3072 {
		t.Errorf("servers = %d, want 3072 (the paper's setup)", c.Servers())
	}
	if c.RackOf(25) != 1 {
		t.Error("RackOf wrong")
	}
}
