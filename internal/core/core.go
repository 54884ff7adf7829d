// Package core is the Sirius network simulator: the paper's primary
// contribution assembled from its substrates.
//
// The simulation is slot-synchronous. Global time advances in fixed slots
// (cell transmission time plus guardband); in every slot each uplink of
// each node transmits according to the static cyclic schedule
// (internal/schedule). Traffic follows Valiant load balancing (§4.2):
// every cell detours through at most one intermediate node, chosen by the
// request/grant congestion-control protocol (internal/congestion) that
// bounds per-destination queues at intermediates to Q cells. Control
// messages ride piggybacked on scheduled cells, so requests and grants
// each take one epoch to propagate.
//
// Three operating modes cover the paper's §7 systems and the ablation
// that motivates the design:
//
//   - ModeRequestGrant — SIRIUS: the real protocol.
//   - ModeIdeal — SIRIUS (IDEAL): per-flow queues and back-pressure with
//     no request/grant round trip; an upper bound used to price the
//     protocol's startup latency.
//   - ModeDirect — no load balancing at all; each pair is limited to its
//     direct slots (the §4.1 baseline VLB exists to beat).
//
// docs/PROTOCOL.md specifies the protocol as implemented and justifies
// each deviation from the paper's prose.
//
// # Performance model
//
// The hot path is activity-proportional and allocation-free in steady
// state (DESIGN.md § Performance model):
//
//   - Active sets. Dense bitset indices track the nodes with cells to
//     transmit (workActive), nodes with LOCAL backlog (localActive),
//     nodes with paced injection pending (pendingActive) and, per node,
//     the destinations with non-empty LOCAL queues (dstActive). The slot
//     loop, the paced drain, the per-epoch demand enumeration, the
//     dynamic planner's demand snapshot (replan) and the
//     ModeDirect/ModeIdeal epoch passes all iterate these sets, so their
//     cost scales with live traffic rather than with n or n².
//   - Pointer-free queues. Every queue is a 12-byte (head, tail, count)
//     chain through one cell pool per element type, and a pair's VOQ,
//     forward queue and tie-break share one record (txPair), so the n²
//     state is 40 B per pair with no pointer for the GC to scan, and
//     queued cells cost pool memory only while they are queued. LOCAL
//     keeps (flow, count) runs, so a flow's cells queued back to back
//     take one pool cell.
//   - Zero-allocation steady state. The pools recycle cells through a
//     free list, scratch buffers are pre-sized and reused across epochs,
//     and the congestion controller double-buffers its grant lists. Once
//     warm, a simulation step performs no heap allocations (enforced by
//     TestRunSteadyStateZeroAlloc).
//   - Determinism. The active-set iteration order is exactly the
//     ascending/rotated index-scan order of the reference implementation,
//     so results are byte-identical for a given seed (enforced by the
//     golden fixtures under testdata/, and after every epoch by the
//     reference slot loop in reference_test.go).
package core

import (
	"context"
	"fmt"

	"sirius/internal/cell"
	"sirius/internal/congestion"
	"sirius/internal/metrics"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/telemetry"
	"sirius/internal/workload"
)

// Mode selects the congestion-control discipline.
type Mode int

// Modes.
const (
	// ModeRequestGrant runs the paper's request/grant protocol (§4.3).
	ModeRequestGrant Mode = iota
	// ModeIdeal runs the idealized grant-free variant: cells spread over
	// intermediates immediately with unbounded queues (per-flow queues +
	// back-pressure in the paper's terms).
	ModeIdeal
	// ModeDirect disables Valiant load balancing entirely: cells wait
	// for the slot that connects source to destination directly. Each
	// pair then gets only k/N of the node bandwidth — the §4.1
	// observation that motivates detouring ("with simple direct routing,
	// the nodes would only be able to communicate directly with a
	// fraction of their total uplink bandwidth").
	ModeDirect
)

// Planner is a dynamic scheduler: instead of a fixed cyclic table, the
// core samples the demand matrix at every epoch boundary and asks the
// planner for the coming epoch's matchings. It is structurally
// identical to sched.Scheduler (the consumer-side mirror, so the core
// does not depend on internal/sched); any sched implementation
// satisfies it. Plan fills dst — laid out like the internal schedule
// table, [(slot*nodes+node)*uplinks+uplink], -1 = dark — and returns
// the link-slots left dark to pay for reconfiguration. The core calls
// Reset once per run and then Plan once per epoch boundary, so a
// deterministic planner keeps runs byte-identical at a fixed seed. A
// Planner instance must not be shared between concurrent runs.
type Planner interface {
	Nodes() int
	Uplinks() int
	SlotsPerEpoch() int
	ConnectionsPerEpoch() int
	Plan(epoch int64, demand []int32, dst []int32) (reconfigLinkSlots int)
	Reset()
}

// Config parameterizes a simulation run.
type Config struct {
	// Schedule is the static cyclic schedule (grouped or rotor).
	// Exactly one of Schedule and Planner must be set.
	Schedule schedule.Schedule
	// Planner, when set, replaces the static schedule with a dynamic
	// per-epoch scheduler (internal/sched): at every epoch boundary the
	// core hands Plan an n×n matrix of cells queued per (source,
	// destination) — LOCAL backlog, plus cells staged in the
	// destination VOQs in ModeDirect — and Plan rewrites the epoch's
	// whole connection table. The matrix is one buffer reused across
	// epochs and updated in time proportional to the live pairs, so
	// Plan must only read it, and only during the call. Demand-aware
	// planners (PULSE, NegotiaToR) only light links that carry demand,
	// so they should run in ModeDirect — the request/grant and
	// ideal-VLB modes assume all-pairs coverage within an epoch, which
	// only demand-oblivious planners guarantee.
	Planner Planner
	// Slot is the timeslot structure (cell size, line rate, guardband).
	Slot phy.Slot
	// Q is the per-destination queue bound at intermediates, expressed
	// per pair-connection per epoch as in §4.3 (where the schedule
	// connects each pair once per epoch). Schedules with k connections
	// per epoch scale the bound to k·Q so the in-flight window still
	// covers the grant round trip at full rate. ModeIdeal uses the same
	// bound for its oracle back-pressure.
	Q int
	// Mode selects SIRIUS or SIRIUS (IDEAL).
	Mode Mode
	// NormalizeRate is the per-node reference bandwidth used for goodput
	// normalization (the paper normalizes by N·R of the *baseline*
	// provisioning, so extra VLB uplinks don't inflate the metric).
	NormalizeRate simtime.Rate
	// TrackReorder enables per-flow reorder-buffer accounting (Fig. 10d).
	TrackReorder bool
	// FailedNodes marks nodes as failed (§4.5): their schedule slots go
	// dark (pass a schedule.Degraded as Schedule to enforce that) and
	// they are never chosen as intermediates. Flows touching them are
	// rejected.
	FailedNodes []int
	// NoDirect is an ablation: the destination is never chosen as the
	// intermediate, so every cell detours (pure VLB).
	NoDirect bool
	// InstantControl is an ablation: requests and grants propagate with
	// zero latency instead of piggybacking for an epoch each.
	InstantControl bool
	// InjectRate, when positive, paces flow cells into each node's LOCAL
	// queue at that many cells per slot — the aggregate rate of the
	// intra-rack tier's server downlinks in a rack-based deployment.
	// Flows at one node are served round-robin (per-flow queues at the
	// rack switch). Zero means cells enter LOCAL instantly on arrival
	// (server-based deployment or an uncongested rack tier).
	InjectRate int
	// LocalCap, when positive, bounds each node's LOCAL occupancy in
	// cells; injection stalls while LOCAL is full (the credit-based
	// back-pressure of §4.3's one-hop flow control). Zero = unbounded.
	LocalCap int
	// Seed feeds all randomness (intermediate choice etc.).
	Seed uint64
	// MaxSlots caps the run as a safety net; 0 means a generous default.
	MaxSlots int64
}

// Results summarizes a run.
type Results struct {
	Flows     int
	Completed int
	// SimTime is the instant the last cell was delivered.
	SimTime simtime.Time
	// Slots is how many timeslots were simulated (idle gaps skipped).
	Slots int64
	// DeliveredBytes counts application bytes of completed flows.
	DeliveredBytes int64
	// GoodputNorm is the normalized goodput measured over the arrival
	// window (§7: bytes received during the simulation over simulation
	// time, normalized by N·R): payload bytes delivered by the time of
	// the last flow arrival, divided by that window. Measuring over the
	// window rather than the makespan keeps a single straggling elephant
	// from dominating the metric. When the window is degenerate (a single
	// arrival instant) the makespan is used instead.
	GoodputNorm float64
	// MakespanGoodput is the alternative normalization over the full
	// makespan (delivered bytes / SimTime / N·R) — preferable when the
	// arrival window is short relative to the fabric's base latency.
	MakespanGoodput float64
	// FCTAll and FCTShort collect flow completion times in milliseconds;
	// short flows are those under 100 KB (§7).
	FCTAll, FCTShort metrics.Sample
	// Slowdown collects each flow's completion time relative to its
	// ideal transmission time at the full baseline node bandwidth — the
	// standard flow-slowdown metric (1 = as fast as an unloaded,
	// zero-latency network could go).
	Slowdown metrics.Sample
	// PeakNodeQueueBytes is the largest aggregate forward-queue occupancy
	// observed at any single node (Fig. 10c).
	PeakNodeQueueBytes int
	// PeakReorderBytes is the largest per-flow reorder buffer observed
	// (Fig. 10d; zero unless TrackReorder).
	PeakReorderBytes int
	// DirectFraction is the fraction of cells that reached their
	// destination without a detour (intermediate == destination).
	DirectFraction float64
	// ReconfigLinkSlots counts link-slots left dark to pay for fabric
	// reconfiguration, as reported by the Planner (zero for static
	// schedules). The epoch's total link-slots — Slots × nodes ×
	// uplinks — is the denominator for an overhead fraction.
	ReconfigLinkSlots int64
	// PerFlowFCT holds each flow's completion time, indexed like the
	// input flows (-1 for a flow that did not complete).
	PerFlowFCT []simtime.Duration
}

// Process-wide telemetry series, resolved once, that Counters reads so
// cmd/siriussim can print a cells/sec summary per experiment without
// threading state through the harness. They are cumulative across every
// Run in the process.
var (
	cellsDelivered = telemetry.Default.Counter("sirius_core_cells_delivered_total")
	slotsSimulated = telemetry.Default.Counter("sirius_core_slots_total")
)

// Counters reports the cumulative number of cells delivered and timeslots
// simulated by every completed Run in this process. Snapshot before and
// after a workload to compute its cells/sec.
func Counters() (cells, slots int64) {
	return cellsDelivered.Value(), slotsSimulated.Value()
}

// sim is the run state.
type sim struct {
	ctx     context.Context
	cfg     Config
	n       int
	uplinks int
	epochE  int
	k       int // pair connections per epoch
	payload int
	qk      int32 // Q * k, the scaled intermediate bound

	flows      []workload.Flow
	cellsTotal []int32            // cells per flow
	cellsLeft  []int32            // cells not yet delivered, per flow
	consumed   []int32            // next LOCAL-departure sequence number, per flow
	fct        []simtime.Duration // completion time, -1 while incomplete
	reorder    []*cell.Reorder

	window      simtime.Time // last flow arrival: goodput window end
	windowBytes int64        // application bytes delivered inside the window

	// The cell pools every queue chains through (see queue.go): flow ids
	// for the paced pending queues, and 64-bit words for the VOQs and
	// forward queues (packed cell refs) and LOCAL (flow, count) runs.
	ids  pool[int32]
	refs pool[int64]

	// LOCAL: per-destination flow queues. Requests are generated by
	// cycling over the destination queues (DRRM style — one request per
	// queued cell, destinations served round-robin) so an elephant flow
	// cannot monopolize the request budget; cells of one destination
	// leave in FIFO order.
	byDst       []runQueue // per node*n: flow ids per destination
	demandStart []int      // per node: round-robin offset over destinations
	localCount  []int64    // per node: total cells in LOCAL
	rrDst       []int      // per node: round-robin pull pointer (ModeIdeal)

	// Active sets (see the package comment's performance model): dense
	// bitset indices replacing the full n / n×n occupancy scans.
	workActive    bitset // nodes with workCells > 0
	localActive   bitset // nodes with localCount > 0
	pendingActive bitset // nodes with a non-empty pendingQ
	dstActive     bitset // per node (dstWords words each): non-empty byDst
	dstWords      int
	// txActive is a flat n*n bitset over (node, peer) pairs: bit
	// node*n+peer is set while tx[node*n+peer] holds a cell in its VOQ or
	// forward queue. The slot loop tests it before touching the pair, so
	// a scheduled slot whose queues are empty costs one bit probe
	// instead of a cache-missing txPair load.
	txActive bitset

	// Intra-rack pacing (InjectRate > 0): flows whose cells have not yet
	// entered LOCAL, round-robin per node, with remaining-cell counts.
	pendingQ   []fifo[int32] // per node: flow ids awaiting injection
	toInject   []int32       // per flow: cells not yet in LOCAL
	pendingOut int64         // cells waiting across all pending queues

	tx []txPair // per node*n: what node sends to peer

	// ModeIdeal back-pressure state: committed cells (in VOQ, in flight
	// or queued) per (via, final dst), bounded by Q; and rotating via
	// pointers per (source, dst) for fair spreading.
	idealQ    []int32
	viaPtr    []int32
	viaBudget []int32 // scratch: per-via VOQ top-up budget
	cands     []int32 // scratch: destination queues with backlog

	queueGauge []metrics.Peak // per node: aggregate forward-queue occupancy (cells)

	cc     *congestion.Controller
	failed []bool // failed-node mask (nil = none)

	// dstTable flattens the schedule ([slot][node][uplink] -> dst, -1 =
	// dark) so the hot loop avoids interface calls.
	dstTable []int32
	// workCells counts the cells a node currently has to transmit (its
	// VOQs plus its forward queues); nodes at zero carry no workActive
	// bit and are never touched by the slot loop.
	workCells []int32

	epoch        int64 // epochs elapsed (drives rotation fairness)
	out          int64 // cells anywhere in the system
	delivered    int64
	direct       int64
	total        int64
	deliveredB   int64
	completed    int
	lastDelivery simtime.Time
	peakReorder  int

	demandBuf    []int
	demandCands  []int32 // scratch: nonempty destinations
	demandCounts []int32 // scratch: their queue lengths

	// Dynamic-planner state (Config.Planner != nil): the demand matrix
	// snapshot handed to Plan each epoch, the indices dirtied last
	// epoch (so clearing is proportional to live traffic, not n²), and
	// the accumulated reconfiguration overhead.
	planDemand    []int32
	planTouched   []int32
	reconfigSlots int64

	// Telemetry accumulators: plain (non-atomic) counts bumped on the
	// hot path and flushed into the telemetry registry once per run
	// (flushTelemetry). Plain int64 slice writes keep the slot loop
	// zero-alloc and branch-cheap; the flush is the only place that
	// touches sync/atomic for these.
	upTx         []int64 // per uplink: cells transmitted
	upIdle       []int64 // per uplink: scheduled slots with empty queues
	grantsIssued int64   // request/grant mode: grants handed out
	grantsUnused int64   // grants whose LOCAL queue had drained
	localStalls  int64   // drainPending stalls on the LOCAL cap (guardband)
}

// txPair is the transmit state of one ordered (node, peer) pair, kept in
// one 28-byte record so a scheduled slot loads one header line.
type txPair struct {
	voq fifo[int64] // granted cell refs awaiting the slot to peer as the via
	fwd fifo[int64] // cell refs queued at node as the via, for final dst peer
	// tieBreak alternates the slot between forwarding (fwd) and fresh
	// granted cells (voq) when both contend: strict forwarding priority
	// would let a saturated destination starve every node's fresh cells
	// routed via it.
	tieBreak bool
}

// Run simulates the given flows to completion and returns the results.
func Run(cfg Config, flows []workload.Flow) (*Results, error) {
	return RunContext(context.Background(), cfg, flows)
}

// RunContext is Run with cancellation: the slot loop polls ctx at every
// epoch boundary (cheap — an epoch is N slots) and returns ctx.Err() when
// the context is done, so the experiment-sweep engine can abort workers
// on SIGINT without waiting for a full simulation to drain.
func RunContext(ctx context.Context, cfg Config, flows []workload.Flow) (*Results, error) {
	s, err := newSim(ctx, cfg, flows)
	if err != nil {
		return nil, err
	}
	return s.run()
}

// newSim validates the configuration and builds the run state. It is
// split from RunContext so the white-box performance tests can drive the
// slot loop directly (see alloc_test.go).
func newSim(ctx context.Context, cfg Config, flows []workload.Flow) (*sim, error) {
	if (cfg.Schedule == nil) == (cfg.Planner == nil) {
		return nil, fmt.Errorf("core: exactly one of Schedule and Planner must be set")
	}
	if cfg.Slot.CellBytes <= cell.HeaderLen {
		return nil, fmt.Errorf("core: cell size %dB does not fit the %dB header",
			cfg.Slot.CellBytes, cell.HeaderLen)
	}
	if cfg.Q < 2 {
		// §4.3: the minimum is 2 — within one epoch a node can receive a
		// new cell for a destination before transmitting the previous.
		// The bound also disciplines ModeIdeal's back-pressure.
		return nil, fmt.Errorf("core: queue bound must be >= 2")
	}
	if cfg.NormalizeRate <= 0 {
		return nil, fmt.Errorf("core: non-positive normalize rate")
	}
	var n, uplinks, epochE, k int
	if cfg.Planner != nil {
		n, uplinks = cfg.Planner.Nodes(), cfg.Planner.Uplinks()
		epochE, k = cfg.Planner.SlotsPerEpoch(), cfg.Planner.ConnectionsPerEpoch()
	} else {
		n, uplinks = cfg.Schedule.Nodes(), cfg.Schedule.Uplinks()
		epochE, k = cfg.Schedule.SlotsPerEpoch(), cfg.Schedule.ConnectionsPerEpoch()
	}
	if n < 2 || uplinks < 1 || epochE < 1 || k < 1 {
		return nil, fmt.Errorf("core: invalid fabric geometry (n=%d uplinks=%d epoch=%d k=%d)",
			n, uplinks, epochE, k)
	}
	var failed []bool
	if len(cfg.FailedNodes) > 0 {
		failed = make([]bool, n)
		for _, fn := range cfg.FailedNodes {
			if fn < 0 || fn >= n {
				return nil, fmt.Errorf("core: failed node %d out of range", fn)
			}
			failed[fn] = true
		}
	}
	for _, f := range flows {
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n || f.Src == f.Dst || f.Bytes < 1 {
			return nil, fmt.Errorf("core: invalid flow %+v", f)
		}
		if failed != nil && (failed[f.Src] || failed[f.Dst]) {
			return nil, fmt.Errorf("core: flow %d touches a failed node", f.ID)
		}
	}

	s := &sim{
		ctx:     ctx,
		cfg:     cfg,
		n:       n,
		uplinks: uplinks,
		epochE:  epochE,
		k:       k,
		payload: cfg.Slot.CellBytes - cell.HeaderLen,
		flows:   flows,
	}
	s.qk = int32(cfg.Q * s.k)
	s.cellsTotal = make([]int32, len(flows))
	s.cellsLeft = make([]int32, len(flows))
	s.consumed = make([]int32, len(flows))
	s.fct = make([]simtime.Duration, len(flows))
	for i, f := range flows {
		s.cellsTotal[i] = int32(cell.CellsForBytes(f.Bytes, s.payload))
		s.cellsLeft[i] = s.cellsTotal[i]
		s.fct[i] = -1
		if f.Arrival > s.window {
			s.window = f.Arrival
		}
	}
	if cfg.TrackReorder {
		s.reorder = make([]*cell.Reorder, len(flows))
	}
	s.byDst = make([]runQueue, n*n)
	s.demandStart = make([]int, n)
	s.localCount = make([]int64, n)
	s.rrDst = make([]int, n)
	s.workActive = newBitset(n)
	s.localActive = newBitset(n)
	s.dstWords = bitsetWords(n)
	s.dstActive = make(bitset, n*s.dstWords)
	if cfg.InjectRate > 0 || cfg.LocalCap > 0 {
		if cfg.InjectRate < 0 || cfg.LocalCap < 0 {
			return nil, fmt.Errorf("core: negative inject rate or local cap")
		}
		if cfg.InjectRate == 0 {
			return nil, fmt.Errorf("core: LocalCap needs a finite InjectRate")
		}
		s.pendingQ = make([]fifo[int32], n)
		s.toInject = make([]int32, len(flows))
		s.pendingActive = newBitset(n)
	}
	s.tx = make([]txPair, n*n)
	s.txActive = newBitset(n * n)
	s.queueGauge = make([]metrics.Peak, n)
	s.upTx = make([]int64, s.uplinks)
	s.upIdle = make([]int64, s.uplinks)
	s.demandBuf = make([]int, 0, s.k*(n-1))
	s.demandCands = make([]int32, 0, n)
	s.demandCounts = make([]int32, 0, n)
	s.workCells = make([]int32, n)
	if cfg.Mode == ModeIdeal {
		s.idealQ = make([]int32, n*n)
		s.viaPtr = make([]int32, n*n)
		s.viaBudget = make([]int32, n)
		s.cands = make([]int32, 0, n)
	}
	s.failed = failed
	s.dstTable = make([]int32, s.epochE*n*s.uplinks)
	if cfg.Planner != nil {
		// The table starts all-dark; the first epoch boundary plans it.
		for i := range s.dstTable {
			s.dstTable[i] = -1
		}
		cfg.Planner.Reset()
		s.planDemand = make([]int32, n*n)
		s.planTouched = make([]int32, 0, n)
	} else {
		for e := 0; e < s.epochE; e++ {
			for node := 0; node < n; node++ {
				for u := 0; u < s.uplinks; u++ {
					s.dstTable[(e*n+node)*s.uplinks+u] = int32(cfg.Schedule.Dst(node, u, e))
				}
			}
		}
	}
	if cfg.Mode == ModeRequestGrant {
		var err error
		s.cc, err = congestion.New(n, cfg.Q*s.k, s.k, cfg.Seed^0xC0FFEE)
		if err != nil {
			return nil, fmt.Errorf("core: queue bound %d at %d connections per epoch: %w", cfg.Q, s.k, err)
		}
		if failed != nil {
			if err := s.cc.ExcludeVias(failed); err != nil {
				return nil, err
			}
		}
		if cfg.NoDirect {
			s.cc.DisallowDirect()
		}
		if cfg.InstantControl {
			s.cc.InstantControl()
		}
	}
	return s, nil
}

// dstRow returns node's active-destination bitset (the destinations with
// a non-empty LOCAL queue).
func (s *sim) dstRow(node int) bitset {
	return s.dstActive[node*s.dstWords : (node+1)*s.dstWords]
}

// workInc adds one transmittable cell to node's account, activating it in
// the slot loop when it was idle.
func (s *sim) workInc(node int) {
	if s.workCells[node] == 0 {
		s.workActive.set(node)
	}
	s.workCells[node]++
}

// workDec removes one transmittable cell from node's account, retiring it
// from the slot loop when it drains.
func (s *sim) workDec(node int) {
	s.workCells[node]--
	if s.workCells[node] == 0 {
		s.workActive.clear(node)
	}
}

// voqPush enqueues a granted cell ref on tx[idx]'s VOQ and marks the
// (node, peer) pair live for the slot loop.
func (s *sim) voqPush(idx int, ref int64) {
	s.tx[idx].voq.push(ref, &s.refs)
	s.txActive.set(idx)
}

// localPush appends count cells of flow f to node's LOCAL queue for dst,
// maintaining the destination and node active sets.
func (s *sim) localPush(node, dst int, f, count int32) {
	q := &s.byDst[node*s.n+dst]
	if q.empty() {
		s.dstRow(node).set(dst)
	}
	q.push(f, count, &s.refs)
	if s.localCount[node] == 0 {
		s.localActive.set(node)
	}
	s.localCount[node] += int64(count)
}

func (s *sim) run() (*Results, error) {
	slotDur := s.cfg.Slot.Duration()
	maxSlots := s.cfg.MaxSlots
	if maxSlots == 0 {
		maxSlots = 2_000_000_000
	}
	epochE := int64(s.epochE)
	next := 0 // next flow to inject
	var slot int64
	quiescent := 0

	for ; slot < maxSlots; slot++ {
		now := simtime.Time(slot * int64(slotDur))
		// Inject flows that have arrived by the start of this slot.
		for next < len(s.flows) && s.flows[next].Arrival <= now {
			s.inject(int32(next))
			next++
		}
		if s.pendingQ != nil && s.pendingOut > 0 {
			s.drainPending()
		}

		e := int(slot % epochE)
		if e == 0 {
			if err := s.ctx.Err(); err != nil {
				return nil, err
			}
			if s.out == 0 {
				quiescent++
			} else {
				quiescent = 0
			}
			if quiescent >= 3 {
				if next >= len(s.flows) {
					break // all delivered, nothing more to come
				}
				// Nothing in flight and the control plane has drained:
				// jump ahead to the epoch of the next arrival.
				arriveSlot := int64(s.flows[next].Arrival) / int64(slotDur)
				target := arriveSlot - arriveSlot%epochE
				if target > slot {
					slot = target - 1 // loop increment lands on target
					continue
				}
			}
		}
		s.step(e, now.Add(slotDur))
	}
	if slot >= maxSlots {
		return nil, fmt.Errorf("core: slot cap %d reached with %d/%d flows complete",
			maxSlots, s.completed, len(s.flows))
	}
	s.flushTelemetry(slot)

	res := &Results{
		Flows:            len(s.flows),
		Completed:        s.completed,
		SimTime:          s.lastDelivery,
		Slots:            slot,
		DeliveredBytes:   s.deliveredB,
		PeakReorderBytes: s.peakReorder,
	}
	for i := range s.queueGauge {
		if b := s.queueGauge[i].Peak() * s.cfg.Slot.CellBytes; b > res.PeakNodeQueueBytes {
			res.PeakNodeQueueBytes = b
		}
	}
	if s.total > 0 {
		res.DirectFraction = float64(s.direct) / float64(s.total)
	}
	res.ReconfigLinkSlots = s.reconfigSlots
	denom := float64(s.n) * float64(s.cfg.NormalizeRate)
	if res.SimTime > 0 {
		res.MakespanGoodput = float64(s.deliveredB) * 8 / (res.SimTime.Seconds() * denom)
	}
	if s.window > 0 {
		res.GoodputNorm = float64(s.windowBytes) * 8 / (s.window.Seconds() * denom)
	} else {
		res.GoodputNorm = res.MakespanGoodput
	}
	for i := range s.flows {
		if s.fct[i] < 0 {
			continue
		}
		ms := s.fct[i].Seconds() * 1e3
		res.FCTAll.Add(ms)
		if s.flows[i].Bytes < 100_000 {
			res.FCTShort.Add(ms)
		}
		ideal := s.cfg.NormalizeRate.TimeToSend(s.flows[i].Bytes)
		res.Slowdown.Add(float64(s.fct[i]) / float64(ideal))
	}
	res.PerFlowFCT = s.fct
	return res, nil
}

// step advances one slot: the control-plane epoch boundary when e == 0,
// then the transmit fan-out over the nodes with cells to send. It is the
// simulator's steady-state unit of work — once warm it performs no heap
// allocations (TestRunSteadyStateZeroAlloc) and its cost scales with the
// active node set, not the topology size.
func (s *sim) step(e int, deliverAt simtime.Time) {
	if e == 0 {
		if s.cfg.Planner != nil {
			s.replan()
		}
		s.epochBoundary()
	}
	uplinks := s.uplinks
	row := s.dstTable[e*s.n*uplinks : (e+1)*s.n*uplinks]
	tx := s.txActive
	for node := s.workActive.next(0); node >= 0; node = s.workActive.next(node + 1) {
		nodeRow := row[node*uplinks : (node+1)*uplinks]
		base := node * s.n
		for u := 0; u < uplinks; u++ {
			dst := int(nodeRow[u])
			if dst < 0 || dst == node {
				continue
			}
			if !tx.has(base + dst) {
				s.upIdle[u]++
				continue // both queues for this peer are empty: idle slot
			}
			s.transmit(node, dst, deliverAt)
			s.upTx[u]++
			if s.workCells[node] == 0 {
				break // node drained mid-slot; remaining uplinks are idle
			}
		}
	}
}

// inject makes flow f's cells available at its source: directly into
// LOCAL, or into the paced per-node pending queue when the intra-rack
// tier is modeled.
func (s *sim) inject(f int32) {
	fl := &s.flows[f]
	cells := int(s.cellsLeft[f])
	s.out += int64(cells)
	s.total += int64(cells)
	if s.pendingQ != nil {
		s.toInject[f] = int32(cells)
		pq := &s.pendingQ[fl.Src]
		if pq.empty() {
			s.pendingActive.set(fl.Src)
		}
		pq.push(f, &s.ids)
		s.pendingOut += int64(cells)
		return
	}
	s.localPush(fl.Src, fl.Dst, f, int32(cells))
}

// drainPending moves pending cells into LOCAL at the intra-rack rate,
// one cell per flow per turn (the rack tier's per-flow fairness),
// stalling on the LOCAL bound. Only nodes with pending flows are visited.
func (s *sim) drainPending() {
	injectRate := s.cfg.InjectRate
	localCap := int64(s.cfg.LocalCap)
	for node := s.pendingActive.next(0); node >= 0; node = s.pendingActive.next(node + 1) {
		pq := &s.pendingQ[node]
		budget := injectRate
		for budget > 0 && !pq.empty() {
			if localCap > 0 && s.localCount[node] >= localCap {
				s.localStalls++
				break // credit back-pressure: LOCAL is full
			}
			f := pq.pop(&s.ids)
			s.localPush(node, int(s.flows[f].Dst), f, 1)
			s.pendingOut--
			s.toInject[f]--
			if s.toInject[f] > 0 {
				pq.push(f, &s.ids)
			}
			budget--
		}
		if pq.empty() {
			s.pendingActive.clear(node)
		}
	}
}

// consume takes the oldest LOCAL cell of node for dst and returns its
// packed reference, stamping the departure sequence number used by the
// destination's reorder buffer. The caller is responsible for the
// corresponding walk-queue entry (skip counter or direct pop).
func (s *sim) consume(node, dst int) int64 {
	q := &s.byDst[node*s.n+dst]
	f := q.pop(&s.refs)
	if q.empty() {
		s.dstRow(node).clear(dst)
	}
	s.localCount[node]--
	if s.localCount[node] == 0 {
		s.localActive.clear(node)
	}
	seq := s.consumed[f]
	s.consumed[f]++
	return cellRef(f, seq)
}

// replan runs the dynamic planner at an epoch boundary: snapshot the
// demand matrix and let the planner rewrite the epoch's connection
// table. The snapshot reads the queues without touching demand's
// round-robin cursors, and costs O(live pairs + active nodes·n/64): it
// zeroes only the entries planTouched recorded last epoch, then walks
// each LOCAL-active node's destination row and, in ModeDirect, each
// work-active node's txActive row, never all n destinations. It runs
// before the epoch's control plane.
func (s *sim) replan() {
	d := s.planDemand
	for _, idx := range s.planTouched {
		d[idx] = 0
	}
	s.planTouched = s.planTouched[:0]
	n := s.n
	for node := s.localActive.next(0); node >= 0; node = s.localActive.next(node + 1) {
		base := node * n
		row := s.dstRow(node)
		for dst := row.next(0); dst >= 0; dst = row.next(dst + 1) {
			if d[base+dst] == 0 {
				s.planTouched = append(s.planTouched, int32(base+dst))
			}
			d[base+dst] += int32(s.byDst[base+dst].len())
		}
	}
	if s.cfg.Mode == ModeDirect {
		// Cells already staged in the destination VOQs are still unserved
		// demand: ModeDirect's boundary drains LOCAL into them wholesale,
		// so LOCAL alone would go blind after one epoch. Every non-empty
		// VOQ has its txActive bit set, so walking the node's txActive
		// row visits exactly the staged pairs (plus any with only a
		// forward queue).
		tx := s.txActive
		for node := s.workActive.next(0); node >= 0; node = s.workActive.next(node + 1) {
			base := node * n
			for idx := tx.nextIn(base, base+n); idx >= 0; idx = tx.nextIn(idx+1, base+n) {
				if l := s.tx[idx].voq.len(); l > 0 {
					if d[idx] == 0 {
						s.planTouched = append(s.planTouched, int32(idx))
					}
					d[idx] += int32(l)
				}
			}
		}
	}
	s.reconfigSlots += int64(s.cfg.Planner.Plan(s.epoch, d, s.dstTable))
}

// epochBoundary runs the control plane for the coming epoch.
func (s *sim) epochBoundary() {
	switch s.cfg.Mode {
	case ModeRequestGrant:
		for via, gs := range s.cc.Tick(s.demand) {
			for _, g := range gs {
				src, dst := int(g.Src), int(g.Dst)
				s.grantsIssued++
				if s.byDst[src*s.n+dst].empty() {
					s.cc.OnGrantUnused(via, dst)
					s.grantsUnused++
					continue
				}
				s.voqPush(src*s.n+via, s.consume(src, dst))
				s.workInc(src)
			}
		}
	case ModeDirect:
		// No detouring: every LOCAL cell goes to the VOQ of its own
		// destination and waits for the direct slot. Only nodes with
		// backlog — and only their non-empty destinations — are visited.
		for node := s.localActive.next(0); node >= 0; node = s.localActive.next(node + 1) {
			base := node * s.n
			row := s.dstRow(node)
			for dst := row.next(0); dst >= 0; dst = row.next(dst + 1) {
				q := &s.byDst[base+dst]
				for !q.empty() {
					s.voqPush(base+dst, s.consume(node, dst))
					s.workInc(node)
				}
			}
		}
	case ModeIdeal:
		// Idealized per-flow queues with back-pressure and no control
		// latency: each epoch every source tops up its VOQs to the k
		// cells per intermediate the schedule can serve, pulling fairly
		// (round-robin) across its destination queues, and commits a
		// cell to an intermediate only while that intermediate's queue
		// for the cell's destination is below the bound — the same
		// discipline the protocol enforces, but known instantly (oracle
		// back-pressure) instead of via a request/grant round trip. The
		// node processing order rotates so freed downstream capacity is
		// shared fairly among competing sources.
		start := int(s.epoch % int64(s.n))
		for node := s.localActive.next(start); node >= 0; node = s.localActive.next(node + 1) {
			s.idealPull(node)
		}
		for node := s.localActive.next(0); node >= 0 && node < start; node = s.localActive.next(node + 1) {
			s.idealPull(node)
		}
	}
	s.epoch++
}

// idealPull moves cells from node's LOCAL queues into its VOQs under the
// oracle back-pressure discipline.
func (s *sim) idealPull(node int) {
	if s.localCount[node] == 0 {
		return
	}
	// Remaining VOQ space per intermediate this epoch.
	total := 0
	base := node * s.n
	k := s.k
	for via := 0; via < s.n; via++ {
		b := k - s.tx[base+via].voq.len()
		if via == node || b < 0 {
			b = 0
		}
		s.viaBudget[via] = int32(b)
		total += b
	}
	if total == 0 {
		return
	}
	// Destination queues with backlog, in rotating order for fairness.
	cands := s.cands[:0]
	start := s.rrDst[node] % s.n
	s.rrDst[node]++
	row := s.dstRow(node)
	for d := row.next(start); d >= 0; d = row.next(d + 1) {
		cands = append(cands, int32(d))
	}
	for d := row.next(0); d >= 0 && d < start; d = row.next(d + 1) {
		cands = append(cands, int32(d))
	}
	// Round-robin one cell per destination per pass.
	for total > 0 && len(cands) > 0 {
		w := 0
		for _, d32 := range cands {
			d := int(d32)
			via, ok := s.findVia(node, d)
			if !ok {
				continue // back-pressured: every eligible via is full for d
			}
			s.voqPush(base+via, s.consume(node, d))
			s.workInc(node)
			s.idealQ[via*s.n+d]++
			s.viaBudget[via]--
			total--
			if total == 0 {
				break
			}
			if !s.byDst[base+d].empty() {
				cands[w] = d32
				w++
			}
		}
		if w == 0 {
			break
		}
		cands = cands[:w]
	}
	s.cands = cands[:0]
}

// findVia picks an intermediate for a cell of (node -> d): the next via in
// rotating order with VOQ budget left and committed cells for d below Q.
func (s *sim) findVia(node, d int) (int, bool) {
	ptr := int(s.viaPtr[node*s.n+d])
	failed := s.failed
	noDirect := s.cfg.NoDirect
	for j := 0; j < s.n; j++ {
		via := (ptr + j) % s.n
		if via == node || s.viaBudget[via] == 0 || (failed != nil && failed[via]) ||
			(noDirect && via == d) {
			continue
		}
		// The destination itself consumes immediately; intermediates are
		// bounded at k·Q committed cells for d (see Config.Q).
		if via != d && s.idealQ[via*s.n+d] >= s.qk {
			continue
		}
		s.viaPtr[node*s.n+d] = int32(via + 1)
		return via, true
	}
	return 0, false
}

// demand enumerates up to k*(n-1) queued cells of node's LOCAL buffer,
// one request candidate each, cycling round-robin over the
// per-destination queues (and rotating the starting destination each
// epoch) so every destination with backlog gets request opportunities
// regardless of how large the other queues are. The returned slice is
// valid until the next call. Only destinations with backlog are visited
// (the dstActive index), so an idle or lightly loaded node costs O(n/64)
// instead of O(n).
func (s *sim) demand(node int) []int {
	start := s.demandStart[node] % s.n
	s.demandStart[node]++
	if s.localCount[node] == 0 {
		return s.demandBuf[:0]
	}
	buf := s.demandBuf[:0]
	limit := s.k * (s.n - 1)
	// Collect the destinations with backlog and their depths, in the
	// rotated order the reference scan produced.
	cands, counts := s.demandCands[:0], s.demandCounts[:0]
	base := node * s.n
	row := s.dstRow(node)
	for d := row.next(start); d >= 0; d = row.next(d + 1) {
		cands = append(cands, int32(d))
		counts = append(counts, int32(s.byDst[base+d].len()))
	}
	for d := row.next(0); d >= 0 && d < start; d = row.next(d + 1) {
		cands = append(cands, int32(d))
		counts = append(counts, int32(s.byDst[base+d].len()))
	}
	// Distribute the budget one cell per destination per pass, dropping
	// exhausted queues from the compact candidate list.
	for len(buf) < limit && len(cands) > 0 {
		w := 0
		for i, d := range cands {
			buf = append(buf, int(d))
			counts[i]--
			if counts[i] > 0 {
				cands[w], counts[w] = d, counts[i]
				w++
			}
			if len(buf) == limit {
				break
			}
		}
		cands, counts = cands[:w], counts[:w]
	}
	s.demandBuf = buf
	s.demandCands, s.demandCounts = cands[:0], counts[:0]
	return buf
}

// transmit sends at most one cell from node to dst in this slot: either a
// queued detour cell the node forwards as an intermediate (fwd) or a
// fresh granted cell headed to dst as its intermediate (voq). When both
// have backlog the slot alternates between the two roles so neither can
// starve the other.
func (s *sim) transmit(node, dst int, deliverAt simtime.Time) {
	idx := node*s.n + dst
	p := &s.tx[idx]
	fw, vq := &p.fwd, &p.voq
	useFwd := !fw.empty()
	if useFwd && !vq.empty() {
		useFwd = p.tieBreak
		p.tieBreak = !p.tieBreak
	}
	switch {
	case useFwd:
		// Forward a cell queued at this node (as intermediate) destined
		// dst: final delivery.
		ref := fw.pop(&s.refs)
		if fw.empty() && vq.empty() {
			s.txActive.clear(idx)
		}
		s.workDec(node)
		s.queueGauge[node].Add(-1)
		if s.cc != nil {
			s.cc.OnCellForwarded(node, dst)
		}
		if s.idealQ != nil {
			s.idealQ[idx]--
		}
		s.deliver(ref, deliverAt)
	case !vq.empty():
		// Send a granted cell to its intermediate (possibly the final
		// destination itself: the direct path).
		ref := vq.pop(&s.refs)
		if vq.empty() && fw.empty() {
			s.txActive.clear(idx)
		}
		s.workDec(node)
		flow, _ := unpackRef(ref)
		final := s.flows[flow].Dst
		if s.cc != nil {
			s.cc.OnCellArrived(dst, final)
		}
		if dst == final {
			s.direct++
			if s.idealQ != nil {
				s.idealQ[dst*s.n+final]--
			}
			s.deliver(ref, deliverAt)
			return
		}
		fwdIdx := dst*s.n + final
		s.tx[fwdIdx].fwd.push(ref, &s.refs)
		s.txActive.set(fwdIdx)
		s.workInc(dst)
		s.queueGauge[dst].Add(1)
	}
	// Otherwise idle: the slot carries only piggybacked control (already
	// modeled by the epoch-granularity control plane).
}

// deliver accounts one cell reaching its destination.
func (s *sim) deliver(ref int64, at simtime.Time) {
	flow, seq := unpackRef(ref)
	s.out--
	s.delivered++
	if at <= s.window {
		// Application bytes of this cell: full payloads except the
		// flow's final cell, which carries the remainder.
		b := s.payload
		if seq == s.cellsTotal[flow]-1 {
			b = s.flows[flow].Bytes - int(s.cellsTotal[flow]-1)*s.payload
		}
		s.windowBytes += int64(b)
	}
	if s.reorder != nil {
		r := s.reorder[flow]
		if r == nil {
			r = cell.NewReorder(s.cfg.Slot.CellBytes)
			s.reorder[flow] = r
		}
		r.Add(uint32(seq))
		if b := r.PeakBytes(); b > s.peakReorder {
			s.peakReorder = b
		}
	}
	s.cellsLeft[flow]--
	if at > s.lastDelivery {
		s.lastDelivery = at
	}
	if s.cellsLeft[flow] == 0 {
		s.completed++
		s.deliveredB += int64(s.flows[flow].Bytes)
		s.fct[flow] = at.Sub(s.flows[flow].Arrival)
		if s.reorder != nil {
			s.reorder[flow] = nil // flow done; free the buffer
		}
	}
}
