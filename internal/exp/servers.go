package exp

import (
	"context"
	"fmt"

	"sirius/internal/dc"
	"sirius/internal/sweep"
	"sirius/internal/workload"
)

// ServerLevel runs the rack-based deployment at server granularity —
// the configuration the paper's §7 numbers are actually measured on
// (racks of servers, intra-rack traffic switched electrically, server
// goodput as the metric). It sweeps the offered load, one sweep point
// per load.
func ServerLevel(ctx context.Context, rn *sweep.Runner, s Scale, serversPerRack int, loads []float64) (*Table, error) {
	t := &Table{
		Title: "§7 deployment: server-level metrics (rack-based Sirius)",
		Note: "intra-rack traffic stays electrical; inter-rack crosses the " +
			"fabric via the paced LOCAL buffer; goodput normalized to server NICs",
		Header: []string{"load", "flows", "intra", "inter",
			"server_goodput", "short_p99_fct_ms"},
	}
	pts := make([]sweep.Point, len(loads))
	for i, load := range loads {
		load := load
		pts[i] = sweep.Point{
			Key: fmt.Sprintf("servers|%s|spr=%d|load=%g", s.keyID(), serversPerRack, load),
			Run: func(ctx context.Context, seed uint64) ([][]string, error) {
				cfg := dc.DefaultConfig(s.Racks)
				cfg.GratingPorts = s.GratingPorts
				cfg.ServersPerRack = serversPerRack
				cfg.Seed = seed
				servers := cfg.Servers()
				// Uniform server-level flows at the requested load against the
				// aggregate server bandwidth.
				wcfg := workload.DefaultConfig(servers, cfg.ServerRate, load, s.Flows)
				wcfg.Seed = s.Seed
				flows, err := workload.Generate(wcfg)
				if err != nil {
					return nil, err
				}
				// workload.Generate never emits self flows, but server-level
				// endpoints may land in the same rack — that is the point.
				res, err := dc.RunContext(ctx, cfg, flows)
				if err != nil {
					return nil, err
				}
				return [][]string{row(load, res.Flows, res.IntraRack, res.InterRack,
					res.ServerGoodput, fmtMS(res.FCTShort.Percentile(99)))}, nil
			},
		}
	}
	if err := t.collect(runOn(ctx, rn, s, "servers", pts)); err != nil {
		return nil, err
	}
	return t, nil
}
