package exp

import (
	"context"
	"fmt"
	"math"

	"sirius/internal/core"
	"sirius/internal/sched"
	"sirius/internal/schedule"
	"sirius/internal/sweep"
	"sirius/internal/workload"
)

// ArchFamilies lists the architectures the archcompare head-to-head
// runs, in row order. "esn" is the fluid electrically-switched baseline;
// every other family drives the slot-level core through a dynamic
// planner (core.Config.Planner), so the rows differ by scheduling
// policy on identical hardware, not by link budget.
var ArchFamilies = []string{"esn", "static", "rotorrr", "pulse", "negotiator"}

// archReconfigSlots is the per-circuit establishment penalty charged to
// the dynamic families, in slots. One slot keeps the comparison about
// scheduling policy: RotorNet-class hardware reconfigures far slower in
// absolute terms, but slot counts are the unit the core accounts in and
// a shared penalty isolates the matching discipline itself.
const archReconfigSlots = 1

// archGeometry resolves the fabric geometry the dynamic families share
// at this scale: every rack is a node, epochs are GratingPorts slots
// long, and uplinks follow the default 1.5x provisioning of runSirius's
// static fabric.
func (s Scale) archGeometry() (nodes, uplinks, slots int) {
	groups := s.Racks / s.GratingPorts
	return s.Racks, int(math.Round(float64(groups) * defaultUplinks)), s.GratingPorts
}

// archPlanner builds a fresh planner for one family together with the
// core mode it runs under. Fresh per call: planners carry per-run state
// and must never be shared between runs. The demand-oblivious families
// keep their usual control loops (request-grant for the Sirius
// schedule, ideal for RotorNet's open-loop rotation); the demand-aware
// families require ModeDirect, where the epoch-boundary demand snapshot
// sees the real VOQ backlog.
func (s Scale) archPlanner(family string) (core.Planner, core.Mode, error) {
	n, up, slots := s.archGeometry()
	switch family {
	case "static":
		st, err := schedule.New(s.Racks, s.GratingPorts, up)
		if err != nil {
			return nil, 0, err
		}
		return sched.NewStatic(st), core.ModeRequestGrant, nil
	case "rotorrr":
		p, err := sched.NewRotorRR(n, up, slots, archReconfigSlots)
		return p, core.ModeIdeal, err
	case "pulse":
		p, err := sched.NewPULSE(n, up, slots, archReconfigSlots, 0)
		return p, core.ModeDirect, err
	case "negotiator":
		p, err := sched.NewNegotiaToR(n, up, slots, archReconfigSlots, 0)
		return p, core.ModeDirect, err
	}
	return nil, 0, fmt.Errorf("unknown scheduler family %q", family)
}

// runSiriusSched runs the slot-level simulator with a dynamic planner in
// place of a static schedule, otherwise configured like runSirius on
// siriusDefaults.
func (s Scale) runSiriusSched(ctx context.Context, flows []workload.Flow, p core.Planner, mode core.Mode) (*core.Results, error) {
	cfg := siriusDefaults()
	cfg.Planner = p
	cfg.Mode = mode
	cfg.NormalizeRate = s.nodeRate()
	cfg.Seed = s.Seed
	return core.RunContext(ctx, cfg, flows)
}

// ArchCompare is the scheduler-family head-to-head: a grid of load x
// mean flow size x hotspot skew, with every family plus the fluid ESN
// baseline run on the same flow sample per grid point. One sweep point
// per (load, mean, skew) triple; one output row per family. The
// reconfig_frac column is the fraction of the fabric's link-slots the
// family spent dark on reconfiguration (ReconfigLinkSlots over slots x
// nodes x uplinks); the static Sirius schedule and the ESN are zero by
// construction.
func ArchCompare(ctx context.Context, rn *sweep.Runner, s Scale, loads, meanBytes, hotFracs []float64) (*Table, error) {
	t := &Table{
		Title: "archcompare: scheduler families head-to-head vs the fluid ESN baseline",
		Note: "static = Sirius fixed-rotation fabric; rotorrr = RotorNet-style round-robin; " +
			"pulse / negotiator = demand-aware matchings with per-circuit reconfiguration penalties",
		Header: []string{"load", "mean_flow", "hot_frac", "arch",
			"short_p99_fct_ms", "makespan_goodput", "reconfig_frac", "direct_frac"},
	}
	var pts []sweep.Point
	for _, load := range loads {
		for _, mb := range meanBytes {
			for _, hf := range hotFracs {
				load, mb, hf := load, mb, hf
				pts = append(pts, sweep.Point{
					Key: fmt.Sprintf("archcmp|%s|load=%g|mean=%g|hot=%g", s.keyID(), load, mb, hf),
					Run: func(ctx context.Context, seed uint64) ([][]string, error) {
						// The workload is seeded from the scale so every family
						// within a row competes on the same flow sample; only
						// simulator randomness comes from the point substream.
						flows, err := s.flows(load, mb, hf, s.Seed)
						if err != nil {
							return nil, err
						}
						sp := s.withSeed(seed)
						mean := fmt.Sprintf("%.0fB", mb)
						rows := make([][]string, 0, len(ArchFamilies))
						for _, fam := range ArchFamilies {
							if fam == "esn" {
								esn, err := sp.runESN(ctx, flows, 1)
								if err != nil {
									return nil, err
								}
								// Goodput over the makespan, as in Fig 13: the
								// small-mean grid rows have arrival windows
								// comparable to the fabric's base latency, where
								// the steady-state window is unrepresentative.
								rows = append(rows, row(load, mean, hf, fam,
									fmtMS(esn.FCTShort.Percentile(99)), esn.MakespanGoodput, 0.0, "-"))
								continue
							}
							p, mode, err := sp.archPlanner(fam)
							if err != nil {
								return nil, err
							}
							res, err := sp.runSiriusSched(ctx, flows, p, mode)
							if err != nil {
								return nil, err
							}
							frac := 0.0
							if res.Slots > 0 {
								frac = float64(res.ReconfigLinkSlots) /
									float64(res.Slots*int64(p.Nodes())*int64(p.Uplinks()))
							}
							rows = append(rows, row(load, mean, hf, fam,
								fmtMS(res.FCTShort.Percentile(99)), res.MakespanGoodput, frac,
								res.DirectFraction))
						}
						return rows, nil
					},
				})
			}
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "archcompare", pts)); err != nil {
		return nil, err
	}
	return t, nil
}
