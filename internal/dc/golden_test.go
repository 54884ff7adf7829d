package dc

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sirius/internal/rng"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// The golden determinism tests pin the server-level composition's output
// at fixed seeds. The fixtures under testdata/ were generated BEFORE the
// fluid-solver rewrite, so a passing run proves the rewritten intra-rack
// solver is output-preserving — every field here is exact (dc never
// consumes the one map-order-noisy fluid field, GoodputNorm; its own
// goodput is computed from integer byte counters).
//
// Regenerate (only on an intentional semantic change) with:
//
//	go test ./internal/dc -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden determinism fixtures")

type goldenSummary struct {
	Flows          int
	Completed      int
	IntraRack      int
	InterRack      int
	DeliveredBytes int64
	ServerGoodput  float64
	FCTAllCount    int
	FCTAllMean     float64
	FCTAllMin      float64
	FCTAllP50      float64
	FCTAllP99      float64
	FCTAllMax      float64
	FCTShortCount  int
	FCTShortP99    float64
	PeakLocalBytes int
}

func summarize(res *Results) goldenSummary {
	g := goldenSummary{
		Flows:          res.Flows,
		Completed:      res.Completed,
		IntraRack:      res.IntraRack,
		InterRack:      res.InterRack,
		DeliveredBytes: res.DeliveredBytes,
		ServerGoodput:  res.ServerGoodput,
		FCTAllCount:    res.FCTAll.Count(),
		FCTShortCount:  res.FCTShort.Count(),
		PeakLocalBytes: res.PeakLocalBytes,
	}
	if g.FCTAllCount > 0 {
		g.FCTAllMean = res.FCTAll.Mean()
		g.FCTAllMin = res.FCTAll.Min()
		g.FCTAllP50 = res.FCTAll.Percentile(50)
		g.FCTAllP99 = res.FCTAll.Percentile(99)
		g.FCTAllMax = res.FCTAll.Max()
	}
	if g.FCTShortCount > 0 {
		g.FCTShortP99 = res.FCTShort.Percentile(99)
	}
	return g
}

// goldenFlows builds a deterministic uniform server-level workload (the
// same shape the package tests use, kept independent of workload.Generate
// so the mixture of intra- and inter-rack traffic is controlled).
func goldenFlows(c Config, n int, seed uint64) []workload.Flow {
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

func goldenCases() map[string]func() (Config, []workload.Flow) {
	return map[string]func() (Config, []workload.Flow){
		"mixed16": func() (Config, []workload.Flow) {
			c := DefaultConfig(16)
			c.ServersPerRack = 4
			c.ServerRate = 50 * simtime.Gbps
			return c, goldenFlows(c, 800, 3)
		},
		"mixed32": func() (Config, []workload.Flow) {
			c := DefaultConfig(32)
			c.ServersPerRack = 8
			c.ServerRate = 25 * simtime.Gbps
			return c, goldenFlows(c, 1200, 9)
		},
		"poisson": func() (Config, []workload.Flow) {
			c := DefaultConfig(16)
			c.ServersPerRack = 4
			c.ServerRate = 50 * simtime.Gbps
			wcfg := workload.DefaultConfig(c.Servers(), c.ServerRate, 0.5, 600)
			wcfg.Seed = 21
			flows, err := workload.Generate(wcfg)
			if err != nil {
				panic(err)
			}
			return c, flows
		},
	}
}

func TestGoldenDeterminism(t *testing.T) {
	for name, build := range goldenCases() {
		t.Run(name, func(t *testing.T) {
			cfg, flows := build()
			res, err := RunContext(context.Background(), cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(summarize(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+name+".json")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden fixture missing (run with -update-golden): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("results diverge from the golden fixture %s\n got: %s\nwant: %s",
					path, got, want)
			}
		})
	}
}
