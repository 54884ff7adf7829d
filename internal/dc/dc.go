// Package dc composes the full rack-based deployment at server
// granularity (§4.1): servers with their own NICs sit behind rack
// switches; intra-rack traffic is switched electrically inside the rack,
// inter-rack traffic crosses the Sirius fabric, paced into the rack
// switch's LOCAL buffer by the credit-based intra-rack tier (§4.3). The
// paper's §7 metrics — *server* goodput and flow completion times — are
// measured here at the server level.
//
// Composition and its approximations (documented per DESIGN.md §1):
//
//   - Inter-rack flows run through the slot-level Sirius simulator at
//     rack granularity with the intra-rack tier modeled as aggregate
//     ingress pacing plus a bounded LOCAL (core.InjectRate/LocalCap).
//     Each flow's completion is additionally floored by its own server
//     NIC serialization at both ends — a single server cannot exceed its
//     link rate even when the rack aggregate has headroom.
//   - Intra-rack flows never touch the fabric: they are served by a
//     max-min fair model of the rack's internal switching (per-rack
//     fluid run over the rack's own endpoints).
package dc

import (
	"context"
	"fmt"
	"math"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/metrics"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/telemetry"
	"sirius/internal/workload"
)

// Config shapes the deployment.
type Config struct {
	Racks          int
	ServersPerRack int
	GratingPorts   int // AWGR ports; Racks must be a multiple
	// UplinkMultiplier provisions the rack uplinks (1.5 default-style).
	UplinkMultiplier float64
	// ServerRate is each server's NIC rate.
	ServerRate simtime.Rate
	// Slot is the optical timeslot (phy.DefaultSlot if zero).
	Slot phy.Slot
	// Q is the congestion-control queue bound (4 if zero).
	Q int
	// LocalCells bounds the rack switch LOCAL buffer (default 8 cells
	// per server).
	LocalCells int
	Seed       uint64
}

// DefaultConfig mirrors the paper's §7 deployment shape at the given
// size: 24 servers per rack behind 8x50G base uplinks.
func DefaultConfig(racks int) Config {
	ports := racks / 8
	if ports < 2 {
		ports = 2
	}
	for racks%ports != 0 {
		ports--
	}
	return Config{
		Racks:            racks,
		ServersPerRack:   24,
		GratingPorts:     ports,
		UplinkMultiplier: 1.5,
		ServerRate:       25 * simtime.Gbps,
		Slot:             phy.DefaultSlot(),
		Q:                4,
		Seed:             1,
	}
}

// Servers returns the total server count.
func (c Config) Servers() int { return c.Racks * c.ServersPerRack }

// RackOf maps a server to its rack.
func (c Config) RackOf(server int) int { return server / c.ServersPerRack }

// Results holds server-level metrics.
type Results struct {
	Flows, Completed     int
	IntraRack, InterRack int
	DeliveredBytes       int64
	// ServerGoodput is delivered bytes over the arrival window,
	// normalized by Servers x ServerRate.
	ServerGoodput float64
	// FCTAll and FCTShort in milliseconds, as elsewhere.
	FCTAll, FCTShort metrics.Sample
	// PeakLocalBytes is the worst aggregate forward-queue occupancy at
	// any rack switch on the fabric side (the LOCAL buffer itself is
	// bounded by construction and enforced inside internal/core).
	PeakLocalBytes int
}

// Process-wide telemetry series, resolved once, that Counters reads
// (mirrors core.Counters and fluid.Counters): cumulative flows completed
// by dc runs and intra-rack fluid simulations executed, for
// cmd/siriussim's -perf summary.
var (
	flowsCompleted = telemetry.Default.Counter("sirius_dc_flows_completed_total")
	rackRuns       = telemetry.Default.Counter("sirius_dc_rack_runs_total")
)

// Counters reports the cumulative number of server-level flows completed
// and intra-rack simulations executed by every Run in this process.
func Counters() (flows, racks int64) {
	return flowsCompleted.Value(), rackRuns.Value()
}

// RunContext simulates server-level flows to completion, with
// cancellation forwarded to the underlying fluid (intra-rack) and core
// (inter-rack fabric) simulations.
func RunContext(ctx context.Context, cfg Config, flows []workload.Flow) (*Results, error) {
	switch {
	case cfg.Racks < 2 || cfg.ServersPerRack < 1:
		return nil, fmt.Errorf("dc: need >= 2 racks and >= 1 server per rack")
	case cfg.GratingPorts < 1 || cfg.Racks%cfg.GratingPorts != 0:
		return nil, fmt.Errorf("dc: racks (%d) must divide into gratings (%d)", cfg.Racks, cfg.GratingPorts)
	case cfg.UplinkMultiplier < 1:
		return nil, fmt.Errorf("dc: uplink multiplier below 1")
	case cfg.ServerRate <= 0:
		return nil, fmt.Errorf("dc: non-positive server rate")
	}
	if cfg.Slot.CellBytes == 0 {
		cfg.Slot = phy.DefaultSlot()
	}
	if cfg.Q == 0 {
		cfg.Q = 4
	}
	if cfg.LocalCells == 0 {
		cfg.LocalCells = 8 * cfg.ServersPerRack
	}
	servers := cfg.Servers()
	for i, f := range flows {
		if f.Src < 0 || f.Src >= servers || f.Dst < 0 || f.Dst >= servers ||
			f.Src == f.Dst || f.Bytes < 1 {
			return nil, fmt.Errorf("dc: invalid flow %+v", f)
		}
		if f.ID != i {
			return nil, fmt.Errorf("dc: flow IDs must equal their index")
		}
	}

	// Partition into intra-rack traffic (per rack) and inter-rack
	// traffic (rack-granularity endpoints for the fabric). A counting
	// pre-pass sizes every slice exactly, so the fill pass appends into
	// preallocated capacity and the partition allocates nothing beyond
	// the slices themselves.
	intraCount := make([]int, cfg.Racks)
	interCount := 0
	for _, f := range flows {
		if sr, dr := cfg.RackOf(f.Src), cfg.RackOf(f.Dst); sr == dr {
			intraCount[sr]++
		} else {
			interCount++
		}
	}
	intraByRack := make([][]workload.Flow, cfg.Racks)
	for r, n := range intraCount {
		if n > 0 {
			intraByRack[r] = make([]workload.Flow, 0, n)
		}
	}
	inter := make([]workload.Flow, 0, interCount)
	interOrig := make([]workload.Flow, 0, interCount) // original server endpoints, same order
	res := &Results{Flows: len(flows)}
	var window simtime.Time
	for _, f := range flows {
		if f.Arrival > window {
			window = f.Arrival
		}
		sr, dr := cfg.RackOf(f.Src), cfg.RackOf(f.Dst)
		if sr == dr {
			g := f
			g.ID = len(intraByRack[sr])
			g.Src = f.Src % cfg.ServersPerRack
			g.Dst = f.Dst % cfg.ServersPerRack
			intraByRack[sr] = append(intraByRack[sr], g)
			res.IntraRack++
			continue
		}
		g := f
		g.ID = len(inter)
		g.Src, g.Dst = sr, dr
		inter = append(inter, g)
		interOrig = append(interOrig, f)
		res.InterRack++
	}

	addFCT := func(ms float64, bytes int) {
		res.FCTAll.Add(ms)
		if bytes < 100_000 {
			res.FCTShort.Add(ms)
		}
	}
	var windowBytes int64

	// Intra-rack traffic: per-rack max-min sharing of server NICs,
	// folded in rack order.
	rackRes, err := runRacks(ctx, cfg, intraByRack)
	if err != nil {
		return nil, err
	}
	for _, r := range rackRes {
		if r == nil {
			continue
		}
		res.Completed += r.Completed
		res.DeliveredBytes += r.DeliveredBytes
		res.FCTAll.Merge(&r.FCTAll)
		res.FCTShort.Merge(&r.FCTShort)
		// Intra-rack transfers finish at NIC speed; count them inside
		// the window (their arrival spread matches the global window).
		windowBytes += r.DeliveredBytes
	}

	// Inter-rack traffic: the Sirius fabric at rack granularity with the
	// intra-rack tier as ingress pacing.
	if len(inter) > 0 {
		groups := cfg.Racks / cfg.GratingPorts
		uplinks := int(math.Round(float64(groups) * cfg.UplinkMultiplier))
		sched, err := schedule.New(cfg.Racks, cfg.GratingPorts, uplinks)
		if err != nil {
			return nil, err
		}
		aggBits := float64(cfg.ServersPerRack) * float64(cfg.ServerRate) * cfg.Slot.Duration().Seconds()
		injectRate := int(aggBits / float64(cfg.Slot.CellBytes*8))
		if injectRate < 1 {
			injectRate = 1
		}
		cres, err := core.RunContext(ctx, core.Config{
			Schedule:      sched,
			Slot:          cfg.Slot,
			Q:             cfg.Q,
			NormalizeRate: simtime.Rate(cfg.ServersPerRack) * cfg.ServerRate,
			InjectRate:    injectRate,
			LocalCap:      cfg.LocalCells,
			Seed:          cfg.Seed,
		}, inter)
		if err != nil {
			return nil, err
		}
		res.Completed += cres.Completed
		res.DeliveredBytes += cres.DeliveredBytes
		res.PeakLocalBytes = cres.PeakNodeQueueBytes
		// A flow pipelines through its server NIC and the fabric; its
		// completion is no earlier than its own NIC serialization plus
		// the last cell's fabric traversal (grant round trip + slot).
		epoch := cfg.Slot.Duration() * simtime.Duration(sched.SlotsPerEpoch())
		tail := 2*epoch + cfg.Slot.Duration()
		for i := range inter {
			fct := cres.PerFlowFCT[i]
			if fct < 0 {
				continue
			}
			if nicFloor := cfg.ServerRate.TimeToSend(interOrig[i].Bytes) + tail; fct < nicFloor {
				fct = nicFloor
			}
			ms := fct.Seconds() * 1e3
			addFCT(ms, interOrig[i].Bytes)
			if interOrig[i].Arrival.Add(fct) <= window {
				windowBytes += int64(interOrig[i].Bytes)
			}
		}
	}

	if window > 0 {
		res.ServerGoodput = float64(windowBytes) * 8 /
			(window.Seconds() * float64(servers) * float64(cfg.ServerRate))
	}
	// Telemetry flush, once per composed run (observe-only; the racks'
	// own fluid runs publish their counters from fluid.finish).
	telemetry.Default.Counter("sirius_dc_runs_total").Inc()
	flowsCompleted.Add(int64(res.Completed))
	return res, nil
}

// rackFluid runs one rack's intra-rack traffic through the max-min fluid
// model of its internal switching.
func rackFluid(ctx context.Context, cfg Config, fl []workload.Flow) (*fluid.Results, error) {
	return fluid.RunContext(ctx, fluid.Config{
		Endpoints:    cfg.ServersPerRack,
		EndpointRate: cfg.ServerRate,
		Oversub:      1,
		// Two store-and-forward hops through the rack switch.
		BaseRTT: 2 * cfg.ServerRate.TimeToSend(1500),
	}, fl)
}

// runRacks executes the per-rack intra-rack simulations in rack order
// and returns the results indexed by rack (nil for racks without
// intra-rack traffic).
func runRacks(ctx context.Context, cfg Config, intraByRack [][]workload.Flow) ([]*fluid.Results, error) {
	work := make([]int, 0, len(intraByRack))
	for rack, fl := range intraByRack {
		if len(fl) > 0 {
			work = append(work, rack)
		}
	}
	rackRuns.Add(int64(len(work)))
	out := make([]*fluid.Results, len(intraByRack))
	// Poll ctx between racks so a cancelled sweep stops at a rack
	// boundary even when individual racks are tiny.
	for _, rack := range work {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := rackFluid(ctx, cfg, intraByRack[rack])
		if err != nil {
			return nil, fmt.Errorf("dc: rack %d intra traffic: %w", rack, err)
		}
		out[rack] = r
	}
	return out, nil
}
