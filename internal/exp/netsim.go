package exp

import (
	"context"
	"fmt"
	"math"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/sweep"
	"sirius/internal/workload"
)

// nodeRate is the baseline per-rack bandwidth of a scale (8 base uplinks
// at 50 Gb/s in the default scales).
func (s Scale) nodeRate() simtime.Rate {
	return simtime.Rate(s.Racks/s.GratingPorts) * 50 * simtime.Gbps
}

// flows generates the §7 workload at the given load, mean flow size and
// hotspot skew (0 keeps the uniform §7 traffic; otherwise that fraction
// of flows targets node 0).
func (s Scale) flows(load, meanBytes, hotFrac float64, seed uint64) ([]workload.Flow, error) {
	cfg := workload.DefaultConfig(s.Racks, s.nodeRate(), load, s.Flows)
	cfg.MeanFlowBytes = meanBytes
	cfg.Seed = seed
	if hotFrac > 0 {
		cfg.Pattern = workload.Hotspot
		cfg.HotFraction = hotFrac
	}
	return workload.Generate(cfg)
}

// defaultUplinks is the §7 uplink provisioning: 1.5x the base uplinks.
const defaultUplinks = 1.5

// siriusDefaults is the §7 configuration of the slot-level simulator:
// the request/grant protocol with Q = 4 on the default slot. Callers
// edit a copy and hand it to runSirius.
func siriusDefaults() core.Config {
	return core.Config{Mode: core.ModeRequestGrant, Q: 4, Slot: phy.DefaultSlot()}
}

// runSirius runs the slot-level simulator at this scale: cfg on a static
// schedule with mult times the base uplinks, normalized to the scale's
// node rate and seeded with its seed.
func (s Scale) runSirius(ctx context.Context, flows []workload.Flow, cfg core.Config, mult float64) (*core.Results, error) {
	groups := s.Racks / s.GratingPorts
	sched, err := schedule.New(s.Racks, s.GratingPorts, int(math.Round(float64(groups)*mult)))
	if err != nil {
		return nil, err
	}
	cfg.Schedule = sched
	cfg.NormalizeRate = s.nodeRate()
	cfg.Seed = s.Seed
	return core.RunContext(ctx, cfg, flows)
}

// runESN runs the idealized electrically-switched baseline. The fluid
// model itself has no latency floor, so it is charged a base RTT for the
// Clos path (multiple store-and-forward switch hops plus propagation),
// comparable to the paper's ESN (Ideal) FCT floor of ~1 us.
func (s Scale) runESN(ctx context.Context, flows []workload.Flow, oversub int) (*fluid.Results, error) {
	cfg := fluid.Config{
		Endpoints:    s.Racks,
		EndpointRate: s.nodeRate(),
		Oversub:      oversub,
		BaseRTT:      simtime.Microsecond,
	}
	if oversub > 1 {
		cfg.EndpointsPerRack = s.GratingPorts // aggregation pods
	}
	return fluid.RunContext(ctx, cfg, flows)
}

func fmtMS(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}

// Fig9 reproduces the load sweep: 99th-percentile short-flow FCT and
// normalized goodput for SIRIUS, SIRIUS (IDEAL), ESN (Ideal) and
// ESN-OSUB (Ideal). One sweep point per load; rn == nil runs serially.
func Fig9(ctx context.Context, rn *sweep.Runner, s Scale, loads []float64) (*Table, error) {
	t := &Table{
		Title: "Fig 9: short-flow p99 FCT (ms) and normalized goodput vs load",
		Note: "paper shape: Sirius ~= ESN (Ideal); ESN-OSUB much worse; " +
			"Sirius (Ideal) slightly faster at low load",
		Header: []string{"load",
			"sirius_fct", "siriusIdeal_fct", "esn_fct", "osub_fct",
			"sirius_gput", "siriusIdeal_gput", "esn_gput", "osub_gput"},
	}
	pts := make([]sweep.Point, len(loads))
	for i, load := range loads {
		load := load
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("fig9|%s|load=%g|mean=%g", s.keyID(), load, 100e3),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				flows, err := s.flows(load, 100e3, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				sp := s.withSeed(seed)
				cfg := siriusDefaults()
				sir, err := sp.runSirius(ctx, flows, cfg, defaultUplinks)
				if err != nil {
					return nil, err
				}
				cfg.Mode = core.ModeIdeal
				ideal, err := sp.runSirius(ctx, flows, cfg, defaultUplinks)
				if err != nil {
					return nil, err
				}
				esn, err := sp.runESN(ctx, flows, 1)
				if err != nil {
					return nil, err
				}
				osub, err := sp.runESN(ctx, flows, 3)
				if err != nil {
					return nil, err
				}
				return [][]string{row(load,
					fmtMS(sir.FCTShort.Percentile(99)), fmtMS(ideal.FCTShort.Percentile(99)),
					fmtMS(esn.FCTShort.Percentile(99)), fmtMS(osub.FCTShort.Percentile(99)),
					sir.GoodputNorm, ideal.GoodputNorm, esn.GoodputNorm, osub.GoodputNorm)}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "fig9", pts)); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig10 reproduces the queue-bound sweep: FCT, goodput, peak aggregate
// queue occupancy and peak reorder buffer for Q in {2,4,8,16}. One sweep
// point per (Q, load) pair.
func Fig10(ctx context.Context, rn *sweep.Runner, s Scale, qs []int, loads []float64) (*Table, error) {
	t := &Table{
		Title: "Fig 10: effect of the queue bound Q",
		Note: "paper: Q=4 best FCT/goodput trade-off; peak aggregate queue " +
			"78.2 KB worst case; reorder buffer ~163 KB",
		Header: []string{"Q", "load", "short_p99_fct_ms", "goodput",
			"peak_node_queue_KB", "peak_reorder_KB"},
	}
	var pts []sweep.Point
	for _, q := range qs {
		for _, load := range loads {
			q, load := q, load
			pts = append(pts, sweep.Point{
				Key: fmt.Sprintf("fig10|%s|q=%d|load=%g", s.keyID(), q, load),
				Run: func(ctx context.Context, seed uint64) ([][]string, error) {
					flows, err := s.flows(load, 100e3, 0, s.Seed)
					if err != nil {
						return nil, err
					}
					cfg := siriusDefaults()
					cfg.Q = q
					cfg.TrackReorder = true
					res, err := s.withSeed(seed).runSirius(ctx, flows, cfg, defaultUplinks)
					if err != nil {
						return nil, err
					}
					return [][]string{row(q, load,
						fmtMS(res.FCTShort.Percentile(99)), res.GoodputNorm,
						float64(res.PeakNodeQueueBytes)/1024,
						float64(res.PeakReorderBytes)/1024)}, nil
				},
			})
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "fig10", pts)); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig11 reproduces the guardband sweep at full load: as the guardband
// grows (with the slot scaled so it stays 10% of it), the epoch grows and
// queuing latency with it. Point 0 is the shared ESN baseline; every
// guardband is its own point on the same flow sample (seeded from the
// scale, not the substream, so all rows compare like for like).
func Fig11(ctx context.Context, rn *sweep.Runner, s Scale, guardsNS []float64) (*Table, error) {
	t := &Table{
		Title: "Fig 11: short-flow p99 FCT vs guardband (10% of slot), high load",
		Note:  "paper: FCT grows sharply beyond ~10 ns; motivates fast tuning + CDR",
		Header: []string{"guardband_ns", "cell_B", "slot_ns",
			"sirius_fct_ms", "siriusIdeal_fct_ms", "esn_fct_ms"},
	}
	// The paper runs this at nominal L = 100% without rescaling arrival
	// times to the realized Pareto sample mean, which corresponds to a
	// realized offered load around 0.6; since our generator rescales to
	// the exact offered load, we sweep at 0.6 to match the operating
	// point (at a rescaled 1.0 the smallest cells saturate the fabric
	// through header overhead and invert the curve).
	load := 0.6
	pts := make([]sweep.Point, 0, len(guardsNS)+1)
	pts = append(pts, sweep.Point{
		Key: fmt.Sprintf("fig11|%s|esn|load=%g", s.keyID(), load),
		Run: func(ctx context.Context, seed uint64) ([][]string, error) {
			flows, err := s.flows(load, 100e3, 0, s.Seed)
			if err != nil {
				return nil, err
			}
			esn, err := s.runESN(ctx, flows, 1)
			if err != nil {
				return nil, err
			}
			return [][]string{{fmtMS(esn.FCTShort.Percentile(99))}}, nil
		},
	})
	for _, g := range guardsNS {
		g := g
		pts = append(pts, sweep.Point{
			Key: fmt.Sprintf("fig11|%s|guard=%g|load=%g", s.keyID(), g, load),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				flows, err := s.flows(load, 100e3, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				slot := phy.SlotForGuardband(50*simtime.Gbps,
					simtime.Duration(g*float64(simtime.Nanosecond)), 0.10)
				cfg := siriusDefaults()
				cfg.Slot = slot
				sp := s.withSeed(seed)
				sir, err := sp.runSirius(ctx, flows, cfg, defaultUplinks)
				if err != nil {
					return nil, err
				}
				cfg.Mode = core.ModeIdeal
				ideal, err := sp.runSirius(ctx, flows, cfg, defaultUplinks)
				if err != nil {
					return nil, err
				}
				return [][]string{row(g, slot.CellBytes, slot.Duration().Nanoseconds(),
					fmtMS(sir.FCTShort.Percentile(99)),
					fmtMS(ideal.FCTShort.Percentile(99)))}, nil
			},
		})
	}
	res, err := runOn(ctx, rn, s, "fig11", pts)
	if err != nil {
		return nil, err
	}
	esnCell := res[0][0][0]
	for _, rows := range res[1:] {
		for _, r := range rows {
			t.Rows = append(t.Rows, append(r, esnCell))
		}
	}
	return t, nil
}

// Fig12 reproduces the uplink-provisioning sweep: goodput for 1x, 1.5x
// and 2x uplinks against the ESN. One sweep point per load.
func Fig12(ctx context.Context, rn *sweep.Runner, s Scale, mults, loads []float64) (*Table, error) {
	t := &Table{
		Title: "Fig 12: normalized goodput vs load for 1x/1.5x/2x uplinks",
		Note:  "paper: 1.5x suffices to match ESN (Ideal); 1x loses ~20% at full load",
		Header: func() []string {
			h := []string{"load", "esn_gput"}
			for _, m := range mults {
				h = append(h, fmt.Sprintf("sirius_%gx", m))
			}
			return h
		}(),
	}
	pts := make([]sweep.Point, len(loads))
	for i, load := range loads {
		load := load
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("fig12|%s|load=%g|mults=%v", s.keyID(), load, mults),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				flows, err := s.flows(load, 100e3, 0, s.Seed)
				if err != nil {
					return nil, err
				}
				sp := s.withSeed(seed)
				esn, err := sp.runESN(ctx, flows, 1)
				if err != nil {
					return nil, err
				}
				cells := []interface{}{load, esn.GoodputNorm}
				for _, m := range mults {
					res, err := sp.runSirius(ctx, flows, siriusDefaults(), m)
					if err != nil {
						return nil, err
					}
					cells = append(cells, res.GoodputNorm)
				}
				return [][]string{row(cells...)}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "fig12", pts)); err != nil {
		return nil, err
	}
	return t, nil
}

// Fig13 reproduces the flow-size sweep: fixed-size cells hurt when the
// average flow is much smaller than a cell, and the gap closes as flows
// grow. One sweep point per mean flow size; the workload itself differs
// per point, so it is seeded from the point substream.
func Fig13(ctx context.Context, rn *sweep.Runner, s Scale, meanBytes []float64, load float64) (*Table, error) {
	t := &Table{
		Title: "Fig 13: FCT and goodput vs average flow size",
		Note: "paper: at 512 B mean, cells cost ~2.3x FCT and ~1.7x goodput " +
			"vs ESN; by 16 KB the gap is ~1.2x/1.05x",
		Header: []string{"mean_flow", "sirius_fct_ms", "esn_fct_ms", "fct_ratio",
			"sirius_gput", "esn_gput", "gput_ratio"},
	}
	pts := make([]sweep.Point, len(meanBytes))
	for i, mb := range meanBytes {
		mb := mb
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("fig13|%s|mean=%g|load=%g", s.keyID(), mb, load),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				flows, err := s.flows(load, mb, 0, seed)
				if err != nil {
					return nil, err
				}
				sp := s.withSeed(seed)
				sir, err := sp.runSirius(ctx, flows, siriusDefaults(), defaultUplinks)
				if err != nil {
					return nil, err
				}
				esn, err := sp.runESN(ctx, flows, 1)
				if err != nil {
					return nil, err
				}
				// Small-mean workloads have arrival windows comparable to the
				// fabric's base latency, so goodput is measured over the makespan.
				spq, epq := sir.FCTShort.Percentile(99), esn.FCTShort.Percentile(99)
				return [][]string{row(fmt.Sprintf("%.0fB", mb), fmtMS(spq), fmtMS(epq), spq/epq,
					sir.MakespanGoodput, esn.MakespanGoodput,
					esn.MakespanGoodput/sir.MakespanGoodput)}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "fig13", pts)); err != nil {
		return nil, err
	}
	return t, nil
}
