package fluid

import (
	"fmt"
	"math"
	"testing"

	"sirius/internal/rng"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// referenceAllocate re-solves the max-min rates of e's active table from
// scratch, the slow way: every round scans every constraint in ascending
// order with a strict < on caps[c]/float64(counts[c]), then freezes, in
// ascending table order, every unfrozen flow that crosses the bottleneck,
// subtracting its share from each of the flow's constraints with the clamp
// at zero. It returns the rates and the rounds and freezes of the solve.
func referenceAllocate(e *engine) (rate []float64, rounds, freezes int64) {
	nAct := e.nAct
	caps := append([]float64(nil), e.caps0...)
	counts := make([]int32, e.nCons)
	for _, cs := range e.cons[:nAct] {
		for _, c := range cs {
			if c >= 0 {
				counts[c]++
			}
		}
	}
	rate = make([]float64, nAct)
	frozen := make([]bool, nAct)
	for unfrozen := nAct; unfrozen > 0; {
		rounds++
		b, best := int32(-1), math.Inf(1)
		for c := range caps {
			if counts[c] == 0 {
				continue
			}
			if s := caps[c] / float64(counts[c]); s < best {
				b, best = int32(c), s
			}
		}
		if b < 0 {
			break
		}
		for i, cs := range e.cons[:nAct] {
			if frozen[i] || (cs[0] != b && cs[1] != b && cs[2] != b && cs[3] != b) {
				continue
			}
			frozen[i] = true
			unfrozen--
			freezes++
			rate[i] = best
			for _, c := range cs {
				if c >= 0 {
					caps[c] -= best
					if caps[c] < 0 {
						caps[c] = 0
					}
					counts[c]--
				}
			}
		}
	}
	return rate, rounds, freezes
}

// checkAgainstReference runs cfg over flows one event at a time. After
// every event it requires the engine's rates to equal referenceAllocate's
// bit for bit, and the event's rounds and freezes to equal the
// reference's.
func checkAgainstReference(t *testing.T, cfg Config, flows []workload.Flow) {
	t.Helper()
	e, err := newEngine(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	for ev := 0; !e.done(); ev++ {
		rounds0, freezes0 := e.rounds, e.freezes
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
		want, rounds, freezes := referenceAllocate(e)
		for i, w := range want {
			if math.Float64bits(e.rate[i]) != math.Float64bits(w) {
				t.Fatalf("event %d: table slot %d has rate %v, the reference %v", ev, i, e.rate[i], w)
			}
		}
		if e.rounds-rounds0 != rounds || e.freezes-freezes0 != freezes {
			t.Fatalf("event %d: %d rounds and %d freezes, the reference %d and %d",
				ev, e.rounds-rounds0, e.freezes-freezes0, rounds, freezes)
		}
	}
}

// TestAllocateMatchesReference compares the solver with referenceAllocate
// at every event, on fabrics whose constraint counts span every bottleneck
// selection shape (4 to 1088 constraints), each as ESN and, where a rack
// size is given, as 3:1 ESN-OSUB with intra-rack flows in the mix.
func TestAllocateMatchesReference(t *testing.T) {
	for _, tc := range []struct{ endpoints, perRack, flows int }{
		{2, 0, 200},
		{8, 4, 600},
		{9, 3, 600},
		{64, 8, 1500},
		{129, 3, 1200},
		{512, 16, 800},
	} {
		wcfg := workload.DefaultConfig(tc.endpoints, 400*simtime.Gbps, 0.85, tc.flows)
		wcfg.Seed = uint64(tc.endpoints)
		flows, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Endpoints: tc.endpoints, EndpointRate: 400 * simtime.Gbps,
			Oversub: 1, BaseRTT: simtime.Microsecond}
		t.Run(fmt.Sprintf("n%d/ideal", tc.endpoints), func(t *testing.T) {
			checkAgainstReference(t, cfg, flows)
		})
		if tc.perRack == 0 {
			continue
		}
		intra := 0
		for _, f := range flows {
			if f.Src/tc.perRack == f.Dst/tc.perRack {
				intra++
			}
		}
		if intra == 0 || intra == len(flows) {
			t.Fatalf("n%d: %d of %d flows are intra-rack; want both kinds", tc.endpoints, intra, len(flows))
		}
		cfg.EndpointsPerRack, cfg.Oversub = tc.perRack, 3
		t.Run(fmt.Sprintf("n%d/osub3_rack%d", tc.endpoints, tc.perRack), func(t *testing.T) {
			checkAgainstReference(t, cfg, flows)
		})
	}
	// A burst of identical flows whose bottlenecks tie. Racks of two at
	// 3:1 give a rack 2/3 of an endpoint's rate, so endpoint 2r's egress
	// (an intra-rack flow and two flows into the next rack) and the two
	// rack constraints of those inter-rack flows all offer R/3. Selecting
	// the egress first freezes all three flows in one round; selecting a
	// rack constraint first needs a second round for the intra-rack
	// flow. Only the lowest-index tie-break gives the reference's rounds.
	t.Run("burst", func(t *testing.T) {
		var flows []workload.Flow
		for rep := 0; rep < 2; rep++ {
			for r := 0; r < 4; r++ {
				next := 2 * ((r + 1) % 4)
				for _, dst := range []int{2*r + 1, next, next + 1} {
					flows = append(flows, workload.Flow{ID: len(flows), Src: 2 * r, Dst: dst,
						Bytes: 100_000, Arrival: simtime.Time(rep) * simtime.Time(simtime.Millisecond)})
				}
			}
		}
		checkAgainstReference(t, Config{Endpoints: 8, EndpointRate: 300 * simtime.Gbps,
			EndpointsPerRack: 2, Oversub: 3}, flows)
	})
}

// FuzzAllocate compares the solver with referenceAllocate at every event
// on bounded random fabrics and workloads. Arrivals land on a coarse grid
// and sizes come from a short list, so simultaneous events and tied
// shares are common.
func FuzzAllocate(f *testing.F) {
	f.Add(uint64(1), uint16(7), uint16(2), uint16(0), uint16(300))
	f.Add(uint64(2), uint16(7), uint16(1), uint16(2), uint16(300))
	f.Add(uint64(3), uint16(15), uint16(7), uint16(2), uint16(400))
	f.Fuzz(func(t *testing.T, seed uint64, endpoints, rackSize, oversub, flows uint16) {
		perRack := 1 + int(rackSize)%8
		cfg := Config{Endpoints: perRack * (2 + int(endpoints)%15), EndpointRate: 100 * simtime.Gbps,
			EndpointsPerRack: perRack, Oversub: 1 + int(oversub)%4}
		r := rng.New(seed)
		sizes := []int{1, 1500, 64_000, 100_000}
		fl := make([]workload.Flow, 1+int(flows)%400)
		var now simtime.Time
		for i := range fl {
			now += simtime.Time(r.Intn(3)) * simtime.Time(simtime.Microsecond)
			src := r.Intn(cfg.Endpoints)
			dst := r.Intn(cfg.Endpoints - 1)
			if dst >= src {
				dst++
			}
			size := sizes[r.Intn(len(sizes))]
			if r.Intn(4) == 0 {
				size = 1 + r.Intn(1_000_000)
			}
			fl[i] = workload.Flow{ID: i, Src: src, Dst: dst, Bytes: size, Arrival: now}
		}
		checkAgainstReference(t, cfg, fl)
	})
}
