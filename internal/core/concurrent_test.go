package core

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// The tests in this file run several engines at once. The core has one
// serial slot loop; the parallelism left in the project is across
// simulations: exp sweeps run points on a pool of concurrent workers,
// each building its own engine. So an engine must keep all of its
// mutable state to itself, and only read its Config and flows, which a
// caller may share among engines (a Planner excepted). A "shardsK" case runs K engines of one configuration concurrently, one
// per goroutine, over the same inputs, and diffs every one field by
// field against a lone serial run. A divergence, or a report from the
// race detector, means state leaks between engines. The case names and
// the configuration grid are those of the differential suite that once
// checked a sharded slot loop against the serial one. Workloads are
// small because a case runs up to 64 whole engines.

// runReplicas runs one engine per config concurrently, all over the same
// flow slice, and returns each engine's final state and results in
// config order. Configs that drive a Planner need one planner each:
// planners carry per-run state.
func runReplicas(t *testing.T, cfgs []Config, flows []workload.Flow) ([]*sim, []*Results) {
	t.Helper()
	sims := make([]*sim, len(cfgs))
	res := make([]*Results, len(cfgs))
	errs := make([]error, len(cfgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			s, err := newSim(context.Background(), cfgs[i], flows)
			if err != nil {
				errs[i] = err
				return
			}
			sims[i] = s
			res[i], errs[i] = s.run()
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("engine %d of %d: %v", i, len(cfgs), err)
		}
	}
	return sims, res
}

// diffReplicas runs cfgs concurrently and diffs every engine against the
// reference run ref/rref.
func diffReplicas(t *testing.T, ref *sim, rref *Results, cfgs []Config, flows []workload.Flow) {
	t.Helper()
	sims, res := runReplicas(t, cfgs, flows)
	for i := range sims {
		diffSims(t, ref, sims[i], rref, res[i])
	}
}

// repeat returns k copies of cfg. Only for configs without a Planner.
func repeat(cfg Config, k int) []Config {
	cfgs := make([]Config, k)
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return cfgs
}

// TestShardedMatchesSerial replays every golden determinism fixture on 2
// and 4 concurrent engines. Each engine must reproduce the fixture byte
// for byte, and match a lone serial run in the internal counters the
// fixtures do not serialize.
func TestShardedMatchesSerial(t *testing.T) {
	for _, tc := range goldenCases() {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", tc.name, k), func(t *testing.T) {
				want, err := os.ReadFile(filepath.Join("testdata", "golden_"+tc.name+".json"))
				if err != nil {
					t.Fatalf("golden fixture missing: %v", err)
				}
				cfg, flows := goldenCase(t, tc.mutate)
				ref, rref := runSim(t, cfg, flows)
				cfgs := make([]Config, k)
				for i := range cfgs {
					// mutate is idempotent and builds a fresh planner for
					// the sched_* cases.
					cfgs[i] = cfg
					tc.mutate(&cfgs[i])
				}
				sims, res := runReplicas(t, cfgs, flows)
				for i := range sims {
					diffSims(t, ref, sims[i], rref, res[i])
					got, err := json.MarshalIndent(summarize(res[i]), "", "  ")
					if err != nil {
						t.Fatal(err)
					}
					if string(append(got, '\n')) != string(want) {
						t.Errorf("engine %d of %d diverges from the golden fixture\n got: %s\nwant: %s", i, k, got, want)
					}
				}
			})
		}
	}
}

func mustGrouped(t *testing.T, n, ports int) schedule.Schedule {
	t.Helper()
	s, err := schedule.NewGrouped(n, ports, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRotor(t *testing.T, n, uplinks int) schedule.Schedule {
	t.Helper()
	s, err := schedule.NewRotor(n, uplinks)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestShardedDifferential sweeps configurations the goldens do not
// cover: failed intermediates, guardband pacing, both control-loop
// variants, and rotor grids that connect one pair on several uplinks in
// a slot. Every case shares one Schedule and one flow slice among all of
// its engines.
func TestShardedDifferential(t *testing.T) {
	type variant struct {
		name   string
		mutate func(*Config)
		failed []int // flows touching these nodes are filtered out
	}
	variants := []variant{
		{"rg", func(c *Config) {}, nil},
		{"rg_instant", func(c *Config) { c.InstantControl = true }, nil},
		{"rg_nodirect", func(c *Config) { c.NoDirect = true }, nil},
		{"rg_failed", func(c *Config) { c.FailedNodes = []int{3, 7} }, []int{3, 7}},
		{"rg_paced", func(c *Config) { c.InjectRate = 2; c.LocalCap = 32 }, nil},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }, nil},
		{"ideal_failed", func(c *Config) { c.Mode = ModeIdeal; c.FailedNodes = []int{5} }, []int{5}},
		{"direct", func(c *Config) { c.Mode = ModeDirect }, nil},
		{"direct_reorder", func(c *Config) { c.Mode = ModeDirect; c.TrackReorder = true }, nil},
	}
	// The rotor grids connect the same (node, peer) pair on several uplinks
	// in one slot (uplinks not a multiple of n-1); the grouped grids keep
	// multiplicity 1.
	grids := []struct {
		name     string
		sched    schedule.Schedule
		n, flows int
	}{
		{"grouped16", mustGrouped(t, 16, 4), 16, 100},
		{"grouped48", mustGrouped(t, 48, 8), 48, 300},
		{"rotor16", mustRotor(t, 16, 6), 16, 100},
		{"rotor48", mustRotor(t, 48, 10), 48, 300},
	}
	for _, g := range grids {
		for _, v := range variants {
			for _, seed := range []uint64{1, 2} {
				wcfg := workload.DefaultConfig(g.n, 100*simtime.Gbps, 0.9, g.flows)
				wcfg.Seed = seed
				flows, err := workload.Generate(wcfg)
				if err != nil {
					t.Fatal(err)
				}
				if v.failed != nil {
					bad := make(map[int]bool, len(v.failed))
					for _, fn := range v.failed {
						bad[fn] = true
					}
					kept := flows[:0]
					for _, f := range flows {
						if bad[f.Src] || bad[f.Dst] {
							continue
						}
						f.ID = len(kept)
						kept = append(kept, f)
					}
					flows = kept
				}
				cfg := Config{
					Schedule:      g.sched,
					Slot:          phy.DefaultSlot(),
					Q:             4,
					NormalizeRate: 100 * simtime.Gbps,
					Seed:          seed * 31,
				}
				v.mutate(&cfg)
				ref, rref := runSim(t, cfg, flows)
				for _, k := range []int{2, 3, 5, 64} {
					t.Run(fmt.Sprintf("%s/%s/seed%d/shards%d", g.name, v.name, seed, k), func(t *testing.T) {
						diffReplicas(t, ref, rref, repeat(cfg, k), flows)
					})
				}
			}
		}
	}
}

// TestShardedDifferentialSched is the dynamic-planner counterpart of
// TestShardedDifferential: every scheduler family, two fabric sizes and
// two seeds, each engine driven by its own planner instance.
func TestShardedDifferentialSched(t *testing.T) {
	families := []struct {
		name, family string
		mode         Mode
	}{
		{"static_grouped", "static", ModeRequestGrant},
		{"rotorrr", "rotor", ModeIdeal},
		{"pulse", "pulse", ModeDirect},
		{"negotiator", "negotiator", ModeDirect},
	}
	sizes := []struct{ n, up, slots, flows int }{
		{16, 4, 4, 100},
		{48, 6, 8, 200},
	}
	for _, f := range families {
		for _, sz := range sizes {
			for _, seed := range []uint64{1, 2} {
				wcfg := workload.DefaultConfig(sz.n, 100*simtime.Gbps, 0.8, sz.flows)
				wcfg.Seed = seed
				flows, err := workload.Generate(wcfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Slot:          phy.DefaultSlot(),
					Q:             4,
					Mode:          f.mode,
					NormalizeRate: 100 * simtime.Gbps,
					Seed:          seed * 31,
				}
				withPlanner := func() Config {
					c := cfg
					c.Planner = newPlanner(f.family, sz.n, sz.up, sz.slots)
					return c
				}
				ref, rref := runSim(t, withPlanner(), flows)
				for _, k := range []int{2, 3, 4, 64} {
					t.Run(fmt.Sprintf("%s/n%d/seed%d/shards%d", f.name, sz.n, seed, k), func(t *testing.T) {
						cfgs := make([]Config, k)
						for i := range cfgs {
							cfgs[i] = withPlanner()
						}
						diffReplicas(t, ref, rref, cfgs, flows)
					})
				}
			}
		}
	}
}
