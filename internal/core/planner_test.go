package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// runSim runs one simulation end to end and returns both the public
// results and the internal sim, so tests can diff state the public
// surface does not expose (per-uplink counters, grant accounting).
func runSim(t *testing.T, cfg Config, flows []workload.Flow) (*sim, *Results) {
	t.Helper()
	s, err := newSim(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// diffSims fails the test unless run got left behind exactly the state
// the reference run want did: public summary, per-flow FCT vector, and
// the internal telemetry counters (uplink tx/idle, grants, stalls,
// reconfiguration link-slots), which the golden summaries do not
// serialize.
func diffSims(t *testing.T, want, got *sim, rw, rg *Results) {
	t.Helper()
	jw, err := json.Marshal(summarize(rw))
	if err != nil {
		t.Fatal(err)
	}
	jg, err := json.Marshal(summarize(rg))
	if err != nil {
		t.Fatal(err)
	}
	if string(jw) != string(jg) {
		t.Errorf("summary diverges\n got: %s\nwant: %s", jg, jw)
	}
	if len(rw.PerFlowFCT) != len(rg.PerFlowFCT) {
		t.Fatalf("per-flow FCT length: got %d, want %d", len(rg.PerFlowFCT), len(rw.PerFlowFCT))
	}
	for i := range rw.PerFlowFCT {
		if rw.PerFlowFCT[i] != rg.PerFlowFCT[i] {
			t.Fatalf("flow %d FCT: got %v, want %v", i, rg.PerFlowFCT[i], rw.PerFlowFCT[i])
		}
	}
	for u := range want.upTx {
		if want.upTx[u] != got.upTx[u] {
			t.Errorf("uplink %d tx: got %d, want %d", u, got.upTx[u], want.upTx[u])
		}
		if want.upIdle[u] != got.upIdle[u] {
			t.Errorf("uplink %d idle: got %d, want %d", u, got.upIdle[u], want.upIdle[u])
		}
	}
	for _, c := range []struct {
		name      string
		want, got int64
	}{
		{"delivered", want.delivered, got.delivered},
		{"direct", want.direct, got.direct},
		{"epoch", want.epoch, got.epoch},
		{"grantsIssued", want.grantsIssued, got.grantsIssued},
		{"grantsUnused", want.grantsUnused, got.grantsUnused},
		{"localStalls", want.localStalls, got.localStalls},
		{"reconfigSlots", want.reconfigSlots, got.reconfigSlots},
	} {
		if c.want != c.got {
			t.Errorf("%s: got %d, want %d", c.name, c.got, c.want)
		}
	}
}

// goldenPlanner builds a fresh planner instance for the golden fixture
// grid (16 nodes, 4 uplinks, 4-slot epochs, matching the static golden
// geometry). Fresh per call: a Planner must not be shared between runs
// that could interleave.
func goldenPlanner(family string) Planner { return newPlanner(family, 16, 4, 4) }

// newPlanner builds a fresh planner of the given family for n nodes,
// `up` uplinks and `slots`-slot epochs. The static family is the grouped
// schedule with `slots` grating ports, which has n/slots uplinks.
func newPlanner(family string, n, up, slots int) Planner {
	mustNil := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	switch family {
	case "static":
		g, err := schedule.NewGrouped(n, slots, 1)
		mustNil(err)
		return sched.NewStatic(g)
	case "rotor":
		r, err := sched.NewRotorRR(n, up, slots, 1)
		mustNil(err)
		return r
	case "pulse":
		p, err := sched.NewPULSE(n, up, slots, 1, 0)
		mustNil(err)
		return p
	case "negotiator":
		g, err := sched.NewNegotiaToR(n, up, slots, 1, 0)
		mustNil(err)
		return g
	}
	panic("unknown planner family " + family)
}

// TestPlannerConfigValidation pins the Schedule/Planner exclusivity
// contract.
func TestPlannerConfigValidation(t *testing.T) {
	cfg, flows := goldenCase(t, func(c *Config) {})
	cfg.Planner = goldenPlanner("static")
	if _, err := Run(cfg, flows); err == nil {
		t.Fatal("both Schedule and Planner accepted")
	}
	cfg.Schedule, cfg.Planner = nil, nil
	if _, err := Run(cfg, flows); err == nil {
		t.Fatal("neither Schedule nor Planner rejected")
	}
}

// TestStaticPlannerMatchesSchedule is the adapter equivalence proof: a
// run driven by Planner = sched.NewStatic(s) is byte-identical to the
// same run driven by Schedule = s, in every mode. The dynamic path is a
// strict generalization of the static one. A shardsK case runs K
// planner-driven engines at once, each with its own planner (K = 0: one
// engine, alone), and diffs every one against the schedule-driven run.
func TestStaticPlannerMatchesSchedule(t *testing.T) {
	for _, mode := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"requestgrant", func(c *Config) {}},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }},
		{"direct", func(c *Config) { c.Mode = ModeDirect }},
	} {
		for _, k := range []int{0, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", mode.name, k), func(t *testing.T) {
				cfg, flows := goldenCase(t, mode.mutate)
				sc, rs := runSim(t, cfg, flows)

				pcfgs := make([]Config, max(k, 1))
				for i := range pcfgs {
					pcfgs[i] = cfg
					pcfgs[i].Schedule = nil
					pcfgs[i].Planner = goldenPlanner("static")
				}
				pls, rps := runReplicas(t, pcfgs, flows)
				for i, rp := range rps {
					if rp.ReconfigLinkSlots != 0 {
						t.Fatalf("static planner charged %d reconfig link-slots", rp.ReconfigLinkSlots)
					}
					diffSims(t, sc, pls[i], rs, rp)
				}
			})
		}
	}
}

// TestPlannerFamiliesComplete runs each dynamic family end to end in its
// natural mode, on the golden geometry and on 48 nodes with 6 uplinks
// and 8-slot epochs, and sanity-checks the reconfiguration accounting.
func TestPlannerFamiliesComplete(t *testing.T) {
	wcfg := workload.DefaultConfig(48, 100*simtime.Gbps, 0.8, 600)
	flows48, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		family string
		mode   Mode
	}{
		{"rotor", ModeIdeal},
		{"pulse", ModeDirect},
		{"negotiator", ModeDirect},
	} {
		t.Run(tc.family, func(t *testing.T) {
			cfg, flows := goldenCase(t, func(c *Config) {})
			cfg.Schedule = nil
			cfg.Planner = goldenPlanner(tc.family)
			cfg.Mode = tc.mode
			checkPlannedRun(t, "n16", cfg, flows)

			cfg.Planner = newPlanner(tc.family, 48, 6, 8)
			cfg.NormalizeRate = 100 * simtime.Gbps
			checkPlannedRun(t, "n48", cfg, flows48)
		})
	}
}

// checkPlannedRun runs cfg as subtest name and checks that every flow
// completes and that the reported reconfiguration overhead is positive
// and within the run's link-slot budget.
func checkPlannedRun(t *testing.T, name string, cfg Config, flows []workload.Flow) {
	t.Run(name, func(t *testing.T) {
		res, err := Run(cfg, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed != res.Flows {
			t.Fatalf("completed %d/%d flows", res.Completed, res.Flows)
		}
		if res.ReconfigLinkSlots == 0 {
			t.Fatal("no reconfiguration overhead recorded")
		}
		budget := res.Slots * int64(cfg.Planner.Nodes()) * int64(cfg.Planner.Uplinks())
		if res.ReconfigLinkSlots < 0 || res.ReconfigLinkSlots > budget {
			t.Fatalf("reconfig link-slots %d outside [0, %d]", res.ReconfigLinkSlots, budget)
		}
	})
}

// TestPlannerReplaysInProcess guards the Reset contract: reusing one
// planner instance across sequential runs must reproduce the first
// run's results exactly.
func TestPlannerReplaysInProcess(t *testing.T) {
	for _, family := range []string{"rotor", "pulse", "negotiator"} {
		t.Run(family, func(t *testing.T) {
			cfg, flows := goldenCase(t, func(c *Config) {})
			cfg.Schedule = nil
			cfg.Planner = goldenPlanner(family)
			if family == "rotor" {
				cfg.Mode = ModeIdeal
			} else {
				cfg.Mode = ModeDirect
			}
			r1, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg, flows)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(summarize(r1))
			b, _ := json.Marshal(summarize(r2))
			if string(a) != string(b) {
				t.Fatalf("replay with reused planner diverged\nfirst:  %s\nsecond: %s", a, b)
			}
			if r1.ReconfigLinkSlots != r2.ReconfigLinkSlots {
				t.Fatalf("reconfig accounting diverged: %d vs %d", r1.ReconfigLinkSlots, r2.ReconfigLinkSlots)
			}
		})
	}
}
