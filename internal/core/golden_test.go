package core

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// The golden determinism tests pin the simulator's observable output for
// every operating mode at a fixed seed. The fixtures under testdata/ were
// generated before the active-set / zero-allocation rework of the hot
// path, so a passing run proves the optimized simulator is byte-identical
// to the reference implementation — the PR's hard constraint.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test ./internal/core -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden determinism fixtures")

// goldenSummary is the canonical, JSON-stable projection of Results used
// by the fixtures. Float64 values marshal as shortest round-trip decimals,
// so equal simulations produce byte-equal fixtures.
type goldenSummary struct {
	Flows              int
	Completed          int
	SimTimeNS          int64
	Slots              int64
	DeliveredBytes     int64
	GoodputNorm        float64
	MakespanGoodput    float64
	FCTAllCount        int
	FCTAllMean         float64
	FCTAllP50          float64
	FCTAllP99          float64
	FCTShortCount      int
	FCTShortP99        float64
	SlowdownMean       float64
	SlowdownP99        float64
	PeakNodeQueueBytes int
	PeakReorderBytes   int
	DirectFraction     float64
	PerFlowFCTSum      int64
}

func summarize(res *Results) goldenSummary {
	g := goldenSummary{
		Flows:              res.Flows,
		Completed:          res.Completed,
		SimTimeNS:          int64(res.SimTime),
		Slots:              res.Slots,
		DeliveredBytes:     res.DeliveredBytes,
		GoodputNorm:        res.GoodputNorm,
		MakespanGoodput:    res.MakespanGoodput,
		FCTAllCount:        res.FCTAll.Count(),
		FCTAllMean:         res.FCTAll.Mean(),
		FCTAllP50:          res.FCTAll.Percentile(50),
		FCTAllP99:          res.FCTAll.Percentile(99),
		FCTShortCount:      res.FCTShort.Count(),
		FCTShortP99:        res.FCTShort.Percentile(99),
		SlowdownMean:       res.Slowdown.Mean(),
		SlowdownP99:        res.Slowdown.Percentile(99),
		PeakNodeQueueBytes: res.PeakNodeQueueBytes,
		PeakReorderBytes:   res.PeakReorderBytes,
		DirectFraction:     res.DirectFraction,
	}
	for _, fct := range res.PerFlowFCT {
		g.PerFlowFCTSum += int64(fct)
	}
	return g
}

// goldenCase builds one fixed workload + config pair. Everything is
// derived from constants so the only degree of freedom is the code.
func goldenCase(t *testing.T, mutate func(*Config)) (Config, []workload.Flow) {
	t.Helper()
	sched, err := schedule.NewGrouped(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(16, 200*simtime.Gbps, 0.75, 400)
	wcfg.Seed = 7
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		NormalizeRate: 200 * simtime.Gbps,
		Seed:          42,
	}
	mutate(&cfg)
	return cfg, flows
}

// goldenCases is the fixture grid. The sched_* cases drive the
// dynamic-planner path (Config.Planner) through each scheduler family
// in its natural operating mode; their mutate builds a fresh planner
// per call so no cross-run state can leak between tests.
func goldenCases() []struct {
	name   string
	mutate func(*Config)
} {
	return []struct {
		name   string
		mutate func(*Config)
	}{
		{"requestgrant", func(c *Config) {}},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }},
		{"direct", func(c *Config) { c.Mode = ModeDirect }},
		{"paced", func(c *Config) { c.InjectRate = 4; c.LocalCap = 64 }},
		{"reorder", func(c *Config) { c.TrackReorder = true }},
		{"nodirect_instant", func(c *Config) { c.NoDirect = true; c.InstantControl = true }},
		{"sched_static", func(c *Config) { c.Schedule, c.Planner = nil, goldenPlanner("static") }},
		{"sched_rotor", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("rotor")
			c.Mode = ModeIdeal
		}},
		{"sched_pulse", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("pulse")
			c.Mode = ModeDirect
		}},
		{"sched_negotiator", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("negotiator")
			c.Mode = ModeDirect
		}},
	}
}

func TestGoldenDeterminism(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg, flows := goldenCase(t, tc.mutate)
			res, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(summarize(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden_"+tc.name+".json")
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
			// A second run in the same process must be byte-identical too
			// (no hidden global state).
			res2, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			got2, err := json.MarshalIndent(summarize(res2), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if string(append(got2, '\n')) != string(got) {
				t.Error("re-run in the same process diverged")
			}
		})
	}
}
