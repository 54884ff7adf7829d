// Package sirius is a simulation library for Sirius, the flat,
// optically-switched datacenter network with nanosecond reconfiguration
// of Ballani et al. (SIGCOMM 2020).
//
// The package is a facade over the building blocks in internal/: the
// slot-synchronous Sirius simulator (static cyclic schedule, Valiant load
// balancing, request/grant congestion control), the idealized
// electrically-switched baselines, the optical substrate models (AWGRs,
// fast tunable lasers, link budgets), the time-synchronization protocol,
// and the §5 power/cost analysis.
//
// Quick start:
//
//	cfg := sirius.DefaultConfig(64)           // 64 racks
//	flows := sirius.Workload(cfg, 0.5, 5000, 1) // load 0.5, 5000 flows
//	rep, err := cfg.Run(flows)
//	...
//	fmt.Println(rep)
package sirius

import (
	"fmt"
	"math"
	"time"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/metrics"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// Rate is a data rate in bits per second (an alias of the internal
// simulation type so rates can be constructed outside this module).
type Rate = simtime.Rate

// Convenience rates.
const (
	Gbps = simtime.Gbps
	Tbps = simtime.Tbps
)

// Flow is one transfer offered to the network.
type Flow struct {
	Src     int           // source node
	Dst     int           // destination node
	Bytes   int           // flow size
	Arrival time.Duration // arrival time since simulation start
}

// Config describes a Sirius fabric. The zero value is not usable; start
// from DefaultConfig.
type Config struct {
	// Nodes is the number of endpoints on the optical fabric (racks in a
	// rack-based deployment, servers in a server-based one).
	Nodes int
	// GratingPorts is the AWGR port count; Nodes must be a multiple.
	GratingPorts int
	// UplinkMultiplier provisions extra uplinks to compensate the VLB
	// detour: 1.0 (baseline), 1.5 (the paper's default), 2.0 (worst-case
	// proof). Fractional values use the generalized rotor schedule.
	UplinkMultiplier float64
	// LineRate is the per-transceiver rate (50 Gb/s default).
	LineRate simtime.Rate
	// CellBytes and Guardband define the timeslot (562 B + 10 ns
	// default: a 100 ns slot).
	CellBytes int
	Guardband time.Duration
	// QueueBound is the congestion-control queue bound Q (default 4).
	QueueBound int
	// Ideal selects the grant-free idealized variant, SIRIUS (IDEAL).
	Ideal bool
	// TrackReorder enables per-flow reorder-buffer accounting.
	TrackReorder bool
	// FailedNodes simulates §4.5 failures: the listed nodes' schedule
	// slots go dark, they are never used as intermediates, and each
	// survivor loses a proportional 1/Nodes of bandwidth per failure.
	// Flows touching failed nodes are rejected.
	FailedNodes []int
	// Rack, when non-nil, models the intra-rack tier of a rack-based
	// deployment: flow cells enter the rack switch's LOCAL buffer at the
	// servers' aggregate downlink rate, round-robin across flows, with
	// LOCAL bounded by credit-based back-pressure (§4.3).
	Rack *RackTier
	// Seed makes runs reproducible.
	Seed uint64
}

// DefaultConfig returns the paper's §7 configuration scaled to the given
// node count: 50 Gb/s channels, 562-byte cells, 10 ns guardband, Q=4,
// 1.5x uplinks, grating ports sized for 8 base uplinks per node.
func DefaultConfig(nodes int) Config {
	ports := nodes / 8
	if ports < 2 {
		ports = 2
	}
	for nodes%ports != 0 {
		ports--
	}
	return Config{
		Nodes:            nodes,
		GratingPorts:     ports,
		UplinkMultiplier: 1.5,
		LineRate:         50 * simtime.Gbps,
		CellBytes:        562,
		Guardband:        10 * time.Nanosecond,
		QueueBound:       4,
		Seed:             1,
	}
}

// RackTier describes the servers behind each node of a rack-based
// deployment.
type RackTier struct {
	// Servers per rack.
	Servers int
	// ServerRate is each server's link rate to the rack switch.
	ServerRate simtime.Rate
	// BufferCells bounds the rack switch's LOCAL buffer (0 = a default
	// of 8 cells per server).
	BufferCells int
}

// injectRate converts the tier's aggregate downlink bandwidth to cells
// per optical timeslot.
func (r *RackTier) injectRate(slot phy.Slot) int {
	bitsPerSlot := float64(r.Servers) * float64(r.ServerRate) * slot.Duration().Seconds()
	cells := int(bitsPerSlot / float64(slot.CellBytes*8))
	if cells < 1 {
		cells = 1
	}
	return cells
}

// BaseUplinks returns the baseline (1x) uplink count.
func (c Config) BaseUplinks() int { return c.Nodes / c.GratingPorts }

// Uplinks returns the provisioned uplink count.
func (c Config) Uplinks() int {
	return int(math.Round(float64(c.BaseUplinks()) * c.UplinkMultiplier))
}

// NodeBandwidth returns the baseline per-node bandwidth (used for load
// and goodput normalization).
func (c Config) NodeBandwidth() simtime.Rate {
	return simtime.Rate(c.BaseUplinks()) * c.LineRate
}

// buildSchedule builds the static schedule (schedule.New), degraded
// around any failed nodes.
func (c Config) buildSchedule() (schedule.Schedule, error) {
	if c.Nodes < 2 || c.GratingPorts < 1 || c.Nodes%c.GratingPorts != 0 {
		return nil, fmt.Errorf("sirius: invalid topology %d nodes / %d grating ports", c.Nodes, c.GratingPorts)
	}
	if c.UplinkMultiplier < 1 {
		return nil, fmt.Errorf("sirius: uplink multiplier %v below 1", c.UplinkMultiplier)
	}
	sched, err := schedule.New(c.Nodes, c.GratingPorts, c.Uplinks())
	if err != nil {
		return nil, err
	}
	if len(c.FailedNodes) > 0 {
		return schedule.NewDegraded(sched, c.FailedNodes)
	}
	return sched, nil
}

// slot returns the phy slot for this configuration.
func (c Config) slot() phy.Slot {
	return phy.Slot{
		LineRate:  c.LineRate,
		CellBytes: c.CellBytes,
		Guardband: simtime.FromStd(c.Guardband),
	}
}

// Report summarizes a run in user-facing units.
type Report struct {
	System         string
	Flows          int
	Completed      int
	SimTime        time.Duration
	DeliveredBytes int64
	// Goodput is normalized to Nodes x NodeBandwidth.
	Goodput float64
	// Flow completion times.
	FCTMean, FCTP50, FCTP99 time.Duration
	// Short-flow (<100 KB) completion times.
	ShortFCTMean, ShortFCTP50, ShortFCTP99 time.Duration
	// SlowdownP50 and SlowdownP99 are flow slowdowns: completion time
	// over the ideal full-bandwidth transmission time (1 = ideal;
	// Sirius runs only).
	SlowdownP50, SlowdownP99 float64
	// PeakNodeQueueBytes is the worst aggregate queue at any node.
	PeakNodeQueueBytes int
	// PeakReorderBytes is the worst per-flow reorder buffer (Sirius only,
	// when tracking is enabled).
	PeakReorderBytes int
	// DirectFraction is the fraction of cells delivered without detour
	// (Sirius only).
	DirectFraction float64
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("%s: %d/%d flows, goodput %.3f, short-flow p99 %v, sim time %v",
		r.System, r.Completed, r.Flows, r.Goodput, r.ShortFCTP99, r.SimTime)
}

func msToDuration(ms float64) time.Duration {
	if math.IsNaN(ms) {
		return 0
	}
	return time.Duration(ms * float64(time.Millisecond))
}

// toInternal converts public flows, validating IDs by position.
func toInternal(flows []Flow) []workload.Flow {
	out := make([]workload.Flow, len(flows))
	for i, f := range flows {
		out[i] = workload.Flow{
			ID:      i,
			Src:     f.Src,
			Dst:     f.Dst,
			Bytes:   f.Bytes,
			Arrival: simtime.Time(simtime.FromStd(f.Arrival)),
		}
	}
	return out
}

// setFCT fills the report's completion-time fields from the samples of
// all flows and of short flows; an empty sample leaves its fields zero.
func (r *Report) setFCT(all, short *metrics.Sample) {
	r.FCTMean = msToDuration(all.Mean())
	r.FCTP50 = msToDuration(all.Percentile(50))
	r.FCTP99 = msToDuration(all.Percentile(99))
	r.ShortFCTMean = msToDuration(short.Mean())
	r.ShortFCTP50 = msToDuration(short.Percentile(50))
	r.ShortFCTP99 = msToDuration(short.Percentile(99))
}

// coreConfig builds the slot-level simulator's configuration for this
// fabric, validating its topology and rack tier.
func (c Config) coreConfig() (core.Config, error) {
	sched, err := c.buildSchedule()
	if err != nil {
		return core.Config{}, err
	}
	mode := core.ModeRequestGrant
	if c.Ideal {
		mode = core.ModeIdeal
	}
	ccfg := core.Config{
		Schedule:      sched,
		Slot:          c.slot(),
		Q:             c.QueueBound,
		Mode:          mode,
		NormalizeRate: c.NodeBandwidth(),
		TrackReorder:  c.TrackReorder,
		FailedNodes:   c.FailedNodes,
		Seed:          c.Seed,
	}
	if c.Rack != nil {
		if c.Rack.Servers < 1 || c.Rack.ServerRate <= 0 {
			return core.Config{}, fmt.Errorf("sirius: invalid rack tier %+v", c.Rack)
		}
		ccfg.InjectRate = c.Rack.injectRate(ccfg.Slot)
		ccfg.LocalCap = c.Rack.BufferCells
		if ccfg.LocalCap == 0 {
			ccfg.LocalCap = 8 * c.Rack.Servers
		}
	}
	return ccfg, nil
}

// Run simulates the flows on the Sirius fabric and returns the report.
func (c Config) Run(flows []Flow) (*Report, error) {
	ccfg, err := c.coreConfig()
	if err != nil {
		return nil, err
	}
	res, err := core.Run(ccfg, toInternal(flows))
	if err != nil {
		return nil, err
	}
	name := "SIRIUS"
	if c.Ideal {
		name = "SIRIUS (IDEAL)"
	}
	rep := &Report{
		System:             name,
		Flows:              res.Flows,
		Completed:          res.Completed,
		SimTime:            simtime.Duration(res.SimTime).Std(),
		DeliveredBytes:     res.DeliveredBytes,
		Goodput:            res.GoodputNorm,
		PeakNodeQueueBytes: res.PeakNodeQueueBytes,
		PeakReorderBytes:   res.PeakReorderBytes,
		DirectFraction:     res.DirectFraction,
	}
	rep.setFCT(&res.FCTAll, &res.FCTShort)
	if res.Slowdown.Count() > 0 {
		rep.SlowdownP50 = res.Slowdown.Percentile(50)
		rep.SlowdownP99 = res.Slowdown.Percentile(99)
	}
	return rep, nil
}

// RunParallel simulates §4.5's topology-level parallelism: `planes`
// independent copies of this fabric run side by side and every node
// stripes its flows across them round-robin (flow-level ECMP). This is
// the paper's scaling path for the post-Moore's-law era — capacity grows
// by adding passive planes rather than switch generations. Goodput is
// normalized to the aggregate capacity (planes x Nodes x NodeBandwidth).
// A flow stays on one plane, so the peak reorder buffer is the planes'
// largest.
func (c Config) RunParallel(flows []Flow, planes int) (*Report, error) {
	if planes < 1 {
		return nil, fmt.Errorf("sirius: need >= 1 plane")
	}
	if planes == 1 {
		return c.Run(flows)
	}
	striped := make([][]Flow, planes)
	next := make([]int, c.Nodes)
	for _, f := range flows {
		if f.Src < 0 || f.Src >= c.Nodes {
			return nil, fmt.Errorf("sirius: flow source %d out of range", f.Src)
		}
		p := next[f.Src] % planes
		next[f.Src]++
		striped[p] = append(striped[p], f)
	}
	merged := &Report{System: fmt.Sprintf("SIRIUS x%d planes", planes)}
	var fctAll, fctShort metrics.Sample
	var goodput float64
	for p := 0; p < planes; p++ {
		pc := c
		pc.Seed = c.Seed + uint64(p)*0x9E3779B9
		ccfg, err := pc.coreConfig()
		if err != nil {
			return nil, err
		}
		res, err := core.Run(ccfg, toInternal(striped[p]))
		if err != nil {
			return nil, err
		}
		merged.Flows += res.Flows
		merged.Completed += res.Completed
		merged.DeliveredBytes += res.DeliveredBytes
		if st := simtime.Duration(res.SimTime).Std(); st > merged.SimTime {
			merged.SimTime = st
		}
		merged.PeakReorderBytes = max(merged.PeakReorderBytes, res.PeakReorderBytes)
		goodput += res.GoodputNorm
		for i, fct := range res.PerFlowFCT {
			if fct < 0 {
				continue
			}
			ms := fct.Seconds() * 1e3
			fctAll.Add(ms)
			if striped[p][i].Bytes < 100_000 {
				fctShort.Add(ms)
			}
		}
	}
	// Each plane's goodput is normalized to one plane's capacity and the
	// planes carry disjoint striped load, so the aggregate-normalized
	// goodput is their mean.
	merged.Goodput = goodput / float64(planes)
	merged.setFCT(&fctAll, &fctShort)
	return merged, nil
}

// RunESN simulates the flows on the idealized electrically-switched
// baseline: a non-blocking folded Clos with per-flow queues,
// back-pressure and packet spraying — computed as max-min fair sharing.
// oversub = 1 is ESN (Ideal); oversub = 3 with endpointsPerRack > 1 is
// ESN-OSUB (Ideal).
func (c Config) RunESN(flows []Flow, oversub, endpointsPerRack int) (*Report, error) {
	name := "ESN (Ideal)"
	if oversub > 1 {
		name = fmt.Sprintf("ESN-OSUB %d:1 (Ideal)", oversub)
	}
	res, err := fluid.Run(fluid.Config{
		Endpoints:        c.Nodes,
		EndpointRate:     c.NodeBandwidth(),
		EndpointsPerRack: endpointsPerRack,
		Oversub:          oversub,
	}, toInternal(flows))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		System:         name,
		Flows:          res.Flows,
		Completed:      res.Completed,
		SimTime:        simtime.Duration(res.SimTime).Std(),
		DeliveredBytes: res.DeliveredBytes,
		Goodput:        res.GoodputNorm,
	}
	rep.setFCT(&res.FCTAll, &res.FCTShort)
	return rep, nil
}

// AllToAllWorkload generates the deterministic all-to-all exchange of a
// shuffle phase: in each of waves rounds, every ordered pair exchanges
// bytesPerPair, rounds spaced by interval.
func AllToAllWorkload(c Config, bytesPerPair, waves int, interval time.Duration) ([]Flow, error) {
	fl, err := workload.AllToAll(c.Nodes, bytesPerPair, waves, simtime.FromStd(interval))
	if err != nil {
		return nil, err
	}
	return fromInternal(fl), nil
}

// BroadcastWorkload generates a one-to-all transfer from src.
func BroadcastWorkload(c Config, src, bytesPerPeer int, at time.Duration) ([]Flow, error) {
	fl, err := workload.Broadcast(src, c.Nodes, bytesPerPeer, simtime.FromStd(at))
	if err != nil {
		return nil, err
	}
	return fromInternal(fl), nil
}

// fromInternal converts generated flows to the public type.
func fromInternal(fl []workload.Flow) []Flow {
	out := make([]Flow, len(fl))
	for i, f := range fl {
		out[i] = Flow{
			Src:     f.Src,
			Dst:     f.Dst,
			Bytes:   f.Bytes,
			Arrival: simtime.Duration(f.Arrival).Std(),
		}
	}
	return out
}

// Workload generates the paper's §7 synthetic traffic for this fabric:
// Pareto(1.05) flow sizes with 100 KB mean, Poisson arrivals, uniform
// random endpoints. load is the offered load in (0, 1].
func Workload(c Config, load float64, flows int, seed uint64) []Flow {
	wcfg := workload.DefaultConfig(c.Nodes, c.NodeBandwidth(), load, flows)
	wcfg.Seed = seed
	fl, err := workload.Generate(wcfg)
	if err != nil {
		panic(err) // DefaultConfig-derived parameters are always valid
	}
	return fromInternal(fl)
}
