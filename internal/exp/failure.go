package exp

import (
	"context"
	"fmt"

	"sirius/internal/core"
	"sirius/internal/health"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/sweep"
	"sirius/internal/workload"
)

// Failure reproduces the §4.5 fault-tolerance analysis: with f failed
// nodes, the static schedule wastes the slots touching them (each
// survivor loses a proportional f/N of bandwidth), while a compacted
// schedule — the consistent datacenter-wide update the paper describes —
// regains the loss. Detection itself takes a handful of epochs (package
// health). One sweep point per failure count; the degraded and compacted
// runs inside a point share the point's substream seed so the comparison
// prices the schedule, not the randomness.
func Failure(ctx context.Context, rn *sweep.Runner, s Scale, failures []int) (*Table, error) {
	t := &Table{
		Title: "§4.5: node failures — degraded vs compacted schedule",
		Note: "paper: failures cost proportional bandwidth; schedule " +
			"compaction regains it; detection takes a few microseconds",
		Header: []string{"failed", "live_flows", "degraded_gput", "compacted_gput",
			"detect_epochs", "detect_time"},
	}
	groups := s.Racks / s.GratingPorts
	base, err := schedule.NewGrouped(s.Racks, s.GratingPorts, 1)
	if err != nil {
		return nil, err
	}
	slot := siriusDefaults().Slot

	pts := make([]sweep.Point, len(failures))
	for i, f := range failures {
		f := f
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("failure|%s|failed=%d", s.keyID(), f),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				failed := make([]int, f)
				failedSet := make(map[int]bool, f)
				for i := 0; i < f; i++ {
					// Spread failures across groups.
					failed[i] = (i*groups + i) % s.Racks
					for failedSet[failed[i]] {
						failed[i] = (failed[i] + 1) % s.Racks
					}
					failedSet[failed[i]] = true
				}

				// Traffic among survivors only (the same flow set for both runs).
				all, err := s.flows(0.9, 100e3, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				var flows []workload.Flow
				for _, fl := range all {
					if !failedSet[fl.Src] && !failedSet[fl.Dst] {
						fl.ID = len(flows)
						flows = append(flows, fl)
					}
				}

				// Degraded: dark slots, failed intermediates excluded.
				var degraded schedule.Schedule = base
				if f > 0 {
					degraded, err = schedule.NewDegraded(base, failed)
					if err != nil {
						return nil, err
					}
				}
				degRes, err := core.RunContext(ctx, core.Config{
					Schedule:      degraded,
					Slot:          slot,
					Q:             4,
					NormalizeRate: s.nodeRate(),
					FailedNodes:   failed,
					Seed:          seed,
				}, flows)
				if err != nil {
					return nil, err
				}

				// Compacted: a fresh rotor over the survivors; flow endpoints are
				// renumbered into the compact space.
				compactGput := degRes.GoodputNorm
				if f > 0 {
					compact, live, err := schedule.Compact(base, failed)
					if err != nil {
						return nil, err
					}
					toCompact := make(map[int]int, len(live))
					for idx, orig := range live {
						toCompact[orig] = idx
					}
					cflows := make([]workload.Flow, len(flows))
					for i, fl := range flows {
						fl.Src = toCompact[fl.Src]
						fl.Dst = toCompact[fl.Dst]
						cflows[i] = fl
					}
					cres, err := core.RunContext(ctx, core.Config{
						Schedule:      compact,
						Slot:          slot,
						Q:             4,
						NormalizeRate: s.nodeRate(),
						Seed:          seed,
					}, cflows)
					if err != nil {
						return nil, err
					}
					compactGput = cres.GoodputNorm
				}

				// Detection latency for this failure set.
				detectEpochs := 0
				if f > 0 {
					det, err := health.New(health.DefaultConfig(s.Racks))
					if err != nil {
						return nil, err
					}
					for e := 0; e < 100; e++ {
						confirmed := det.Epoch(func(obs, peer int) bool {
							return !failedSet[peer]
						})
						for range confirmed {
							if l := det.DetectionLatency(failed[0]); l > detectEpochs {
								detectEpochs = l
							}
						}
						if det.Confirmed(failed[0]) {
							break
						}
					}
				}
				epochLen := slot.Duration() * simtime.Duration(base.SlotsPerEpoch())
				return [][]string{row(f, len(flows), degRes.GoodputNorm, compactGput,
					detectEpochs, fmt.Sprintf("%v", epochLen*simtime.Duration(detectEpochs)))}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "failure", pts)); err != nil {
		return nil, err
	}
	return t, nil
}
