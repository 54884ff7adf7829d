package core

import (
	"context"
	"fmt"
	"testing"

	"sirius/internal/cell"
	"sirius/internal/congestion"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// The reference slot loop states the core's semantics with every
// optimization peeled out: plain per-pair slices instead of pooled
// queues, full ascending scans instead of the active sets (no txActive,
// workActive, localActive or dstActive), sums instead of the per-node
// counters, and the schedule's Dst called per slot instead of the
// flattened table. It drives a congestion.Controller of its own, seeded
// like the core's and called in the core's order, so both controllers
// draw the same random numbers.
//
// TestReferenceSlotLoop and FuzzSlotLoop run it in lockstep with the
// core's real run loop: the core polls its context at every epoch
// boundary, and the test's context compares the two there.
//
// Idle time is walked slot by slot. Skipping it is observable all the
// same: an epoch the core does not simulate runs no control plane and is
// not counted, which moves the demand rotation and the epoch number the
// planners see. So the reference keeps the rule: an epoch is not
// simulated when its boundary finds the fabric quiescent for the third
// time running and no flow arrives during it. Only the jump is gone.

// refCell is one queued cell: its flow and its departure sequence number.
type refCell struct{ flow, seq int32 }

type refSim struct {
	cfg     Config
	flows   []workload.Flow
	planner Planner // the reference's own planner instance, nil for a static schedule
	cc      *congestion.Controller

	n, uplinks, epochE, k, payload int
	qk                             int32
	slotDur                        simtime.Duration

	local    [][]int32   // per pair: LOCAL flow ids, oldest first
	voq      [][]refCell // per pair: granted cells awaiting the slot to the via
	fwd      [][]refCell // per pair (via, final dst): cells queued at the via
	tieBreak []bool      // per pair
	pending  [][]int32   // per node: paced flows awaiting injection
	toInject []int32     // per flow
	idealQ   []int32     // per (via, dst), ModeIdeal
	viaPtr   []int32     // per (node, dst), ModeIdeal
	rrDst    []int       // per node, ModeIdeal
	demStart []int       // per node: the request rotation
	fwdNow   []int       // per node: forward-queue occupancy
	fwdPeak  []int       // per node: its peak
	table    []int32     // the planner's connection table

	cellsTotal, cellsLeft, consumed []int32
	fct                             []simtime.Duration
	reorder                         []*cell.Reorder
	window                          simtime.Time

	epoch, out, delivered, direct, total, deliveredB, windowBytes int64
	grantsIssued, grantsUnused, localStalls, reconfigSlots        int64
	completed                                                     int
	lastDelivery                                                  simtime.Time
	peakReorder                                                   int
	upTx                                                          []int64

	slot      int64 // the walk's position: always an epoch boundary between calls
	next      int   // next flow to arrive
	quiescent int
}

// newRef builds the reference for cfg, with planner standing in for
// cfg.Planner, and injects the arrivals of slot 0.
func newRef(t testing.TB, cfg Config, planner Planner, flows []workload.Flow) *refSim {
	t.Helper()
	r := &refSim{cfg: cfg, flows: flows, planner: planner, slotDur: cfg.Slot.Duration()}
	if planner != nil {
		r.n, r.uplinks = planner.Nodes(), planner.Uplinks()
		r.epochE, r.k = planner.SlotsPerEpoch(), planner.ConnectionsPerEpoch()
		planner.Reset()
		r.table = make([]int32, r.epochE*r.n*r.uplinks)
		for i := range r.table {
			r.table[i] = -1
		}
	} else {
		r.n, r.uplinks = cfg.Schedule.Nodes(), cfg.Schedule.Uplinks()
		r.epochE, r.k = cfg.Schedule.SlotsPerEpoch(), cfg.Schedule.ConnectionsPerEpoch()
	}
	n := r.n
	r.payload = cfg.Slot.CellBytes - cell.HeaderLen
	r.qk = int32(cfg.Q * r.k)
	r.local = make([][]int32, n*n)
	r.voq = make([][]refCell, n*n)
	r.fwd = make([][]refCell, n*n)
	r.tieBreak = make([]bool, n*n)
	r.pending = make([][]int32, n)
	r.toInject = make([]int32, len(flows))
	r.idealQ = make([]int32, n*n)
	r.viaPtr = make([]int32, n*n)
	r.rrDst = make([]int, n)
	r.demStart = make([]int, n)
	r.fwdNow = make([]int, n)
	r.fwdPeak = make([]int, n)
	r.upTx = make([]int64, r.uplinks)
	r.cellsTotal = make([]int32, len(flows))
	r.cellsLeft = make([]int32, len(flows))
	r.consumed = make([]int32, len(flows))
	r.fct = make([]simtime.Duration, len(flows))
	r.reorder = make([]*cell.Reorder, len(flows))
	for i, f := range flows {
		r.cellsTotal[i] = int32(cell.CellsForBytes(f.Bytes, r.payload))
		r.cellsLeft[i] = r.cellsTotal[i]
		r.fct[i] = -1
		r.window = max(r.window, f.Arrival)
	}
	if cfg.Mode == ModeRequestGrant {
		cc, err := congestion.New(n, cfg.Q*r.k, r.k, cfg.Seed^0xC0FFEE)
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.FailedNodes) > 0 {
			failed := make([]bool, n)
			for _, fn := range cfg.FailedNodes {
				failed[fn] = true
			}
			if err := cc.ExcludeVias(failed); err != nil {
				t.Fatal(err)
			}
		}
		if cfg.NoDirect {
			cc.DisallowDirect()
		}
		if cfg.InstantControl {
			cc.InstantControl()
		}
		r.cc = cc
	}
	r.arrive()
	return r
}

// advance walks to the next epoch boundary that follows a simulated
// epoch and stops there, after that slot's arrivals and paced injection:
// the point at which the core polls its context. It returns false when
// the run ends at the current boundary instead.
func (r *refSim) advance() bool {
	epochE := int64(r.epochE)
	for {
		if r.out == 0 {
			r.quiescent++
		} else {
			r.quiescent = 0
		}
		if r.quiescent >= 3 && r.next >= len(r.flows) {
			return false
		}
		// The slot an arrival falls in is its instant divided by the slot
		// length; the flow enters at the start of the slot after it.
		idle := r.quiescent >= 3 &&
			int64(r.flows[r.next].Arrival)/int64(r.slotDur) >= r.slot+epochE
		for e := 0; e < r.epochE; e++ {
			if e > 0 {
				r.arrive()
			}
			if !idle {
				r.stepSlot(e)
			}
			r.slot++
		}
		r.arrive()
		if !idle {
			return true
		}
	}
}

// arrive injects the flows that have arrived by the start of the current
// slot, then moves paced cells into LOCAL.
func (r *refSim) arrive() {
	now := simtime.Time(r.slot * int64(r.slotDur))
	for r.next < len(r.flows) && r.flows[r.next].Arrival <= now {
		f := int32(r.next)
		fl := r.flows[f]
		cells := r.cellsLeft[f]
		r.out += int64(cells)
		r.total += int64(cells)
		if r.cfg.InjectRate > 0 {
			r.toInject[f] = cells
			r.pending[fl.Src] = append(r.pending[fl.Src], f)
		} else {
			for c := int32(0); c < cells; c++ {
				r.local[fl.Src*r.n+fl.Dst] = append(r.local[fl.Src*r.n+fl.Dst], f)
			}
		}
		r.next++
	}
	if r.cfg.InjectRate == 0 {
		return
	}
	for node := 0; node < r.n; node++ {
		budget := r.cfg.InjectRate
		for budget > 0 && len(r.pending[node]) > 0 {
			if r.cfg.LocalCap > 0 && r.localCells(node) >= r.cfg.LocalCap {
				r.localStalls++
				break
			}
			f := r.pending[node][0]
			r.pending[node] = r.pending[node][1:]
			i := node*r.n + r.flows[f].Dst
			r.local[i] = append(r.local[i], f)
			r.toInject[f]--
			if r.toInject[f] > 0 {
				r.pending[node] = append(r.pending[node], f)
			}
			budget--
		}
	}
}

// localCells is node's LOCAL occupancy.
func (r *refSim) localCells(node int) int {
	c := 0
	for dst := 0; dst < r.n; dst++ {
		c += len(r.local[node*r.n+dst])
	}
	return c
}

// dst is the peer uplink u of node reaches in slot e of the epoch.
func (r *refSim) dst(e, node, u int) int {
	if r.planner != nil {
		return int(r.table[(e*r.n+node)*r.uplinks+u])
	}
	return r.cfg.Schedule.Dst(node, u, e)
}

// stepSlot simulates slot e of the epoch: the control plane at the
// boundary, then every scheduled link of every node in ascending order.
func (r *refSim) stepSlot(e int) {
	if e == 0 {
		if r.planner != nil {
			r.replan()
		}
		r.controlPlane()
	}
	deliverAt := simtime.Time((r.slot + 1) * int64(r.slotDur))
	for node := 0; node < r.n; node++ {
		for u := 0; u < r.uplinks; u++ {
			if dst := r.dst(e, node, u); dst >= 0 && dst != node && r.transmit(node, dst, deliverAt) {
				r.upTx[u]++
			}
		}
	}
}

// replan hands the planner every pair's queued cells: LOCAL, plus the
// cells staged in the destination VOQs in ModeDirect.
func (r *refSim) replan() {
	d := make([]int32, r.n*r.n)
	for i := range d {
		d[i] = int32(len(r.local[i]))
		if r.cfg.Mode == ModeDirect {
			d[i] += int32(len(r.voq[i]))
		}
	}
	r.reconfigSlots += int64(r.planner.Plan(r.epoch, d, r.table))
}

// consume takes node's oldest LOCAL cell for dst and stamps its sequence
// number.
func (r *refSim) consume(node, dst int) refCell {
	i := node*r.n + dst
	f := r.local[i][0]
	r.local[i] = r.local[i][1:]
	c := refCell{f, r.consumed[f]}
	r.consumed[f]++
	return c
}

func (r *refSim) controlPlane() {
	n := r.n
	switch r.cfg.Mode {
	case ModeRequestGrant:
		for via, gs := range r.cc.Tick(r.demand) {
			for _, g := range gs {
				src, dst := int(g.Src), int(g.Dst)
				r.grantsIssued++
				if len(r.local[src*n+dst]) == 0 {
					r.cc.OnGrantUnused(via, dst)
					r.grantsUnused++
					continue
				}
				r.voq[src*n+via] = append(r.voq[src*n+via], r.consume(src, dst))
			}
		}
	case ModeDirect:
		for node := 0; node < n; node++ {
			for dst := 0; dst < n; dst++ {
				for len(r.local[node*n+dst]) > 0 {
					r.voq[node*n+dst] = append(r.voq[node*n+dst], r.consume(node, dst))
				}
			}
		}
	case ModeIdeal:
		start := int(r.epoch % int64(n))
		for j := 0; j < n; j++ {
			r.idealPull((start + j) % n)
		}
	}
	r.epoch++
}

// demand lists one request per LOCAL cell of node, up to k·(n-1): one
// cell per destination per pass, destinations in an order rotated by one
// every call.
func (r *refSim) demand(node int) []int {
	n := r.n
	start := r.demStart[node] % n
	r.demStart[node]++
	left := make([]int, n)
	for d := range left {
		left[d] = len(r.local[node*n+d])
	}
	var buf []int
	for more := true; more; {
		more = false
		for j := 0; j < n && len(buf) < r.k*(n-1); j++ {
			if d := (start + j) % n; left[d] > 0 {
				buf = append(buf, d)
				left[d]--
				more = true
			}
		}
	}
	return buf
}

// idealPull tops node's VOQs up to k cells per via, one cell per
// destination per pass, destinations rotated per call, each cell
// committed to the next via (rotating per pair) whose queue for the
// cell's destination is below the bound.
func (r *refSim) idealPull(node int) {
	n := r.n
	if r.localCells(node) == 0 {
		return
	}
	budget := make([]int32, n)
	total := 0
	for via := 0; via < n; via++ {
		if b := r.k - len(r.voq[node*n+via]); via != node && b > 0 {
			budget[via] = int32(b)
			total += b
		}
	}
	if total == 0 {
		return
	}
	start := r.rrDst[node] % n
	r.rrDst[node]++
	var cands []int
	for j := 0; j < n; j++ {
		if d := (start + j) % n; len(r.local[node*n+d]) > 0 {
			cands = append(cands, d)
		}
	}
	for total > 0 && len(cands) > 0 {
		var kept []int
		for _, d := range cands {
			via := -1
			ptr := int(r.viaPtr[node*n+d])
			for j := 0; j < n && via < 0; j++ {
				v := (ptr + j) % n
				failed := false
				for _, fn := range r.cfg.FailedNodes {
					failed = failed || fn == v
				}
				if v == node || budget[v] == 0 || failed || (r.cfg.NoDirect && v == d) ||
					(v != d && r.idealQ[v*n+d] >= r.qk) {
					continue
				}
				via = v
			}
			if via < 0 {
				continue // every eligible via is full for d
			}
			r.viaPtr[node*n+d] = int32(via + 1)
			r.voq[node*n+via] = append(r.voq[node*n+via], r.consume(node, d))
			r.idealQ[via*n+d]++
			budget[via]--
			total--
			if total == 0 {
				break
			}
			if len(r.local[node*n+d]) > 0 {
				kept = append(kept, d)
			}
		}
		cands = kept
	}
}

// transmit sends at most one cell from node to dst: a forwarded cell or
// a fresh granted one, alternating when both wait. It reports whether a
// cell left.
func (r *refSim) transmit(node, dst int, at simtime.Time) bool {
	n := r.n
	i := node*n + dst
	useFwd := len(r.fwd[i]) > 0
	if useFwd && len(r.voq[i]) > 0 {
		useFwd = r.tieBreak[i]
		r.tieBreak[i] = !r.tieBreak[i]
	}
	switch {
	case useFwd:
		c := r.fwd[i][0]
		r.fwd[i] = r.fwd[i][1:]
		r.fwdNow[node]--
		if r.cc != nil {
			r.cc.OnCellForwarded(node, dst)
		}
		if r.cfg.Mode == ModeIdeal {
			r.idealQ[i]--
		}
		r.deliver(c, at)
	case len(r.voq[i]) > 0:
		c := r.voq[i][0]
		r.voq[i] = r.voq[i][1:]
		final := r.flows[c.flow].Dst
		if r.cc != nil {
			r.cc.OnCellArrived(dst, final)
		}
		if dst == final {
			r.direct++
			if r.cfg.Mode == ModeIdeal {
				r.idealQ[dst*n+final]--
			}
			r.deliver(c, at)
			return true
		}
		r.fwd[dst*n+final] = append(r.fwd[dst*n+final], c)
		r.fwdNow[dst]++
		r.fwdPeak[dst] = max(r.fwdPeak[dst], r.fwdNow[dst])
	default:
		return false
	}
	return true
}

func (r *refSim) deliver(c refCell, at simtime.Time) {
	f := c.flow
	r.out--
	r.delivered++
	if at <= r.window {
		b := r.payload
		if c.seq == r.cellsTotal[f]-1 {
			b = r.flows[f].Bytes - int(r.cellsTotal[f]-1)*r.payload
		}
		r.windowBytes += int64(b)
	}
	if r.cfg.TrackReorder {
		if r.reorder[f] == nil {
			r.reorder[f] = cell.NewReorder(r.cfg.Slot.CellBytes)
		}
		r.reorder[f].Add(uint32(c.seq))
		r.peakReorder = max(r.peakReorder, r.reorder[f].PeakBytes())
	}
	r.cellsLeft[f]--
	r.lastDelivery = max(r.lastDelivery, at)
	if r.cellsLeft[f] == 0 {
		r.completed++
		r.deliveredB += int64(r.flows[f].Bytes)
		r.fct[f] = at.Sub(r.flows[f].Arrival)
	}
}

// queued returns the values q holds, oldest first, without popping them.
func queued[T int32 | int64](q fifo[T], p *pool[T]) []T {
	vs := make([]T, 0, q.n)
	for c, i := q.head, int32(0); i < q.n; c, i = p.cells[c].next, i+1 {
		vs = append(vs, p.cells[c].v)
	}
	return vs
}

// localFlows returns the flow id of every cell q holds, oldest first. It
// reads at most q.n cells, so a broken chain shows as wrong contents.
func localFlows(q runQueue, p *pool[int64]) []int32 {
	fs := make([]int32, 0, q.n)
	for c, runs := q.head, int32(0); runs < q.n && len(fs) < int(q.n); c, runs = p.cells[c].next, runs+1 {
		for k := uint32(p.cells[c].v); k > 0 && len(fs) < int(q.n); k-- {
			fs = append(fs, int32(p.cells[c].v>>32))
		}
	}
	return fs
}

func sameFlows(what string, i int, core, ref []int32) error {
	if len(core) != len(ref) {
		return fmt.Errorf("%s[%d] holds %d cells, reference %d: %v vs %v", what, i, len(core), len(ref), core, ref)
	}
	for j := range core {
		if core[j] != ref[j] {
			return fmt.Errorf("%s[%d][%d] = flow %d, reference %d", what, i, j, core[j], ref[j])
		}
	}
	return nil
}

func sameCells(what string, i int, core []int64, ref []refCell) error {
	if len(core) != len(ref) {
		return fmt.Errorf("%s[%d] holds %d cells, reference %d", what, i, len(core), len(ref))
	}
	for j := range core {
		if want := cellRef(ref[j].flow, ref[j].seq); core[j] != want {
			f, q := unpackRef(core[j])
			return fmt.Errorf("%s[%d][%d] = (flow %d, seq %d), reference (%d, %d)",
				what, i, j, f, q, ref[j].flow, ref[j].seq)
		}
	}
	return nil
}

// diff compares the core's state with the reference's at an epoch
// boundary: every pair's LOCAL, VOQ and forward contents, the grants
// (issued, unused, and the VOQ entries they became) and every delivery.
func (r *refSim) diff(s *sim) error {
	err := r.diffState(s)
	if err != nil {
		return fmt.Errorf("slot %d, epoch %d: %w", r.slot, r.epoch, err)
	}
	return nil
}

func (r *refSim) diffState(s *sim) error {
	n := r.n
	if s.epoch != r.epoch {
		return fmt.Errorf("core has simulated %d epochs", s.epoch)
	}
	for i := 0; i < n*n; i++ {
		if err := sameFlows("LOCAL", i, localFlows(s.byDst[i], &s.refs), r.local[i]); err != nil {
			return err
		}
		p := &s.tx[i]
		if err := sameCells("VOQ", i, queued(p.voq, &s.refs), r.voq[i]); err != nil {
			return err
		}
		if err := sameCells("forward queue", i, queued(p.fwd, &s.refs), r.fwd[i]); err != nil {
			return err
		}
		if p.tieBreak != r.tieBreak[i] {
			return fmt.Errorf("tie-break[%d] = %v, reference %v", i, p.tieBreak, r.tieBreak[i])
		}
		if s.idealQ != nil && (s.idealQ[i] != r.idealQ[i] || s.viaPtr[i] != r.viaPtr[i]) {
			return fmt.Errorf("pair %d: idealQ %d, viaPtr %d; reference %d, %d",
				i, s.idealQ[i], s.viaPtr[i], r.idealQ[i], r.viaPtr[i])
		}
	}
	for node := 0; node < n; node++ {
		if s.demandStart[node] != r.demStart[node] || s.rrDst[node] != r.rrDst[node] {
			return fmt.Errorf("node %d rotations: demand %d, ideal %d; reference %d, %d",
				node, s.demandStart[node], s.rrDst[node], r.demStart[node], r.rrDst[node])
		}
		if got := s.queueGauge[node].Peak(); got != r.fwdPeak[node] {
			return fmt.Errorf("node %d forward-queue peak %d, reference %d", node, got, r.fwdPeak[node])
		}
		if s.pendingQ != nil {
			if err := sameFlows("pending", node, queued(s.pendingQ[node], &s.ids), r.pending[node]); err != nil {
				return err
			}
		}
	}
	for f := range r.flows {
		if s.cellsLeft[f] != r.cellsLeft[f] || s.consumed[f] != r.consumed[f] || s.fct[f] != r.fct[f] {
			return fmt.Errorf("flow %d: %d cells left, %d consumed, FCT %v; reference %d, %d, %v",
				f, s.cellsLeft[f], s.consumed[f], s.fct[f], r.cellsLeft[f], r.consumed[f], r.fct[f])
		}
		if s.toInject != nil && s.toInject[f] != r.toInject[f] {
			return fmt.Errorf("flow %d: %d cells to inject, reference %d", f, s.toInject[f], r.toInject[f])
		}
	}
	for _, c := range []struct {
		name      string
		core, ref int64
	}{
		{"cells in flight", s.out, r.out},
		{"cells injected", s.total, r.total},
		{"cells delivered", s.delivered, r.delivered},
		{"direct cells", s.direct, r.direct},
		{"bytes of completed flows", s.deliveredB, r.deliveredB},
		{"bytes inside the window", s.windowBytes, r.windowBytes},
		{"flows completed", int64(s.completed), int64(r.completed)},
		{"last delivery", int64(s.lastDelivery), int64(r.lastDelivery)},
		{"peak reorder bytes", int64(s.peakReorder), int64(r.peakReorder)},
		{"grants issued", s.grantsIssued, r.grantsIssued},
		{"grants unused", s.grantsUnused, r.grantsUnused},
		{"LOCAL-cap stalls", s.localStalls, r.localStalls},
		{"reconfiguration link-slots", s.reconfigSlots, r.reconfigSlots},
	} {
		if c.core != c.ref {
			return fmt.Errorf("%s: %d, reference %d", c.name, c.core, c.ref)
		}
	}
	for u := range r.upTx {
		if s.upTx[u] != r.upTx[u] {
			return fmt.Errorf("uplink %d sent %d cells, reference %d", u, s.upTx[u], r.upTx[u])
		}
	}
	return nil
}

// lockstep is the context the core runs under: each time the core polls
// it at the boundary after a simulated epoch, it walks the reference to
// the same boundary and compares. A boundary the core visits without
// simulating the epoch before it (where it resumes after an idle gap)
// carries the same epoch count and is not compared; the next simulated
// epoch shows whether the core resumed where the reference did.
type lockstep struct {
	context.Context
	core     *sim
	ref      *refSim
	compared bool
	last     int64 // the epoch count at the last comparison
	err      error
}

func (l *lockstep) Err() error {
	if l.err != nil || (l.compared && l.core.epoch == l.last) {
		return l.err
	}
	switch {
	case l.compared && l.core.epoch != l.last+1:
		l.err = fmt.Errorf("core went from epoch %d to %d between two boundaries", l.last, l.core.epoch)
	case l.compared && !l.ref.advance():
		l.err = fmt.Errorf("core simulates on at epoch %d; the reference ended at slot %d", l.core.epoch, l.ref.slot)
	default:
		l.compared, l.last = true, l.core.epoch
		l.err = l.ref.diff(l.core)
	}
	return l.err
}

// refGeometries are the fabrics the reference covers: n nodes behind
// ports-port gratings with the given uplinks, built by schedule.New
// (grouped when the uplinks divide over the n/ports groups, rotor
// otherwise).
var refGeometries = []struct {
	name              string
	n, ports, uplinks int
}{
	{"grouped16", 16, 4, 4},
	{"grouped16x2", 16, 4, 8}, // two planes: k = 2
	{"rotor16x6", 16, 4, 6},   // 6 uplinks over 4 groups: a rotor with k = 3
	{"rotor12x5", 12, 4, 5},   // 5 uplinks over 3 groups: a 12-slot epoch, k = 5
	{"grouped72", 72, 8, 9},   // per-node rows span two bitset words
}

// refSpec is one point of the space the reference is checked over.
type refSpec struct {
	geo                        int    // index into refGeometries
	planner                    string // "" runs the geometry's static schedule; else a newPlanner family
	mode                       Mode
	failed                     bool // nodes 1 and n-3 fail
	paced                      bool // InjectRate 2, LocalCap 24
	noDirect, instant, reorder bool
	flows                      int
	load                       float64
	seed                       uint64
}

// build returns the core's config and flows, and a constructor for the
// reference's own planner (nil for a static schedule).
func (sp refSpec) build(t testing.TB) (Config, []workload.Flow, func() Planner) {
	t.Helper()
	g := refGeometries[sp.geo]
	cfg := Config{
		Slot:           phy.DefaultSlot(),
		Q:              4,
		Mode:           sp.mode,
		NormalizeRate:  100 * simtime.Gbps,
		Seed:           sp.seed*31 + 7,
		NoDirect:       sp.noDirect,
		InstantControl: sp.instant,
		TrackReorder:   sp.reorder,
		MaxSlots:       1 << 21,
	}
	var failed []int
	if sp.failed {
		failed = []int{1, g.n - 3}
		cfg.FailedNodes = failed
	}
	if sp.paced {
		cfg.InjectRate, cfg.LocalCap = 2, 24
	}
	var mk func() Planner
	if sp.planner == "" {
		s, err := schedule.New(g.n, g.ports, g.uplinks)
		if err != nil {
			t.Fatal(err)
		}
		if failed != nil {
			if s, err = schedule.NewDegraded(s, failed); err != nil {
				t.Fatal(err)
			}
		}
		cfg.Schedule = s
	} else {
		mk = func() Planner { return newPlanner(sp.planner, g.n, g.uplinks, g.ports) }
		cfg.Planner = mk()
	}
	wcfg := workload.DefaultConfig(g.n, 100*simtime.Gbps, sp.load, sp.flows)
	wcfg.Seed = sp.seed
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	kept := flows[:0]
	for _, f := range flows {
		if sp.failed && (f.Src == 1 || f.Dst == 1 || f.Src == g.n-3 || f.Dst == g.n-3) {
			continue
		}
		f.ID = len(kept)
		kept = append(kept, f)
	}
	return cfg, kept, mk
}

// checkAgainstReference runs the core under lockstep with the reference
// and compares them after every epoch and at the end.
func checkAgainstReference(t *testing.T, sp refSpec) {
	t.Helper()
	cfg, flows, mk := sp.build(t)
	var planner Planner
	if mk != nil {
		planner = mk()
	}
	ls := &lockstep{Context: context.Background(), ref: newRef(t, cfg, planner, flows)}
	s, err := newSim(ls, cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	ls.core = s
	res, err := s.run()
	if err != nil {
		t.Fatalf("%+v: %v", sp, err)
	}
	r := ls.ref
	if r.advance() {
		t.Fatalf("%+v: core ended at slot %d; the reference simulates on", sp, res.Slots)
	}
	peakFwd := 0
	for _, p := range r.fwdPeak {
		peakFwd = max(peakFwd, p*cfg.Slot.CellBytes)
	}
	for _, c := range []struct {
		name      string
		core, ref int64
	}{
		{"slots", res.Slots, r.slot},
		{"completed", int64(res.Completed), int64(r.completed)},
		{"sim time", int64(res.SimTime), int64(r.lastDelivery)},
		{"delivered bytes", res.DeliveredBytes, r.deliveredB},
		{"peak node queue bytes", int64(res.PeakNodeQueueBytes), int64(peakFwd)},
		{"reconfiguration link-slots", res.ReconfigLinkSlots, r.reconfigSlots},
	} {
		if c.core != c.ref {
			t.Errorf("%+v: %s %d, reference %d", sp, c.name, c.core, c.ref)
		}
	}
	if res.Completed != len(flows) {
		t.Errorf("%+v: %d of %d flows completed", sp, res.Completed, len(flows))
	}
	for f := range flows {
		if res.PerFlowFCT[f] != r.fct[f] {
			t.Fatalf("%+v: flow %d FCT %v, reference %v", sp, f, res.PerFlowFCT[f], r.fct[f])
		}
	}
}

// TestReferenceSlotLoop checks the core against the reference over the
// three modes, static grouped and rotor schedules (including ones whose
// uplinks do not divide over the groups), the four planner families,
// failed nodes, paced injection under a LOCAL cap, the ablations and
// reorder tracking. The low-load cases leave idle gaps to skip.
func TestReferenceSlotLoop(t *testing.T) {
	rg, ideal, direct := ModeRequestGrant, ModeIdeal, ModeDirect
	cases := []struct {
		name string
		sp   refSpec
	}{
		{"grouped16/rg", refSpec{geo: 0, mode: rg, flows: 300, load: 0.8, seed: 1}},
		{"grouped16/rg_lowload", refSpec{geo: 0, mode: rg, flows: 60, load: 0.01, seed: 2}},
		{"grouped16/ideal", refSpec{geo: 0, mode: ideal, flows: 300, load: 0.8, seed: 3}},
		{"grouped16/direct", refSpec{geo: 0, mode: direct, flows: 300, load: 0.8, seed: 4}},
		{"grouped16/rg_failed", refSpec{geo: 0, mode: rg, failed: true, flows: 250, load: 0.7, seed: 5}},
		{"grouped16/ideal_failed", refSpec{geo: 0, mode: ideal, failed: true, flows: 250, load: 0.7, seed: 6}},
		{"grouped16/rg_paced", refSpec{geo: 0, mode: rg, paced: true, flows: 250, load: 0.9, seed: 7}},
		{"grouped16/ideal_paced", refSpec{geo: 0, mode: ideal, paced: true, flows: 250, load: 0.9, seed: 8}},
		{"grouped16/direct_paced_lowload", refSpec{geo: 0, mode: direct, paced: true, flows: 60, load: 0.01, seed: 9}},
		{"grouped16/rg_nodirect_instant", refSpec{geo: 0, mode: rg, noDirect: true, instant: true, flows: 250, load: 0.8, seed: 10}},
		{"grouped16/direct_reorder", refSpec{geo: 0, mode: direct, reorder: true, flows: 200, load: 0.8, seed: 11}},
		{"grouped16x2/rg_reorder", refSpec{geo: 1, mode: rg, reorder: true, flows: 300, load: 0.9, seed: 12}},
		{"grouped16x2/ideal", refSpec{geo: 1, mode: ideal, flows: 300, load: 0.9, seed: 13}},
		{"rotor16x6/rg", refSpec{geo: 2, mode: rg, flows: 300, load: 0.9, seed: 14}},
		{"rotor16x6/ideal_nodirect", refSpec{geo: 2, mode: ideal, noDirect: true, flows: 300, load: 0.9, seed: 15}},
		{"rotor16x6/direct", refSpec{geo: 2, mode: direct, flows: 300, load: 0.9, seed: 16}},
		{"rotor16x6/rg_failed_paced", refSpec{geo: 2, mode: rg, failed: true, paced: true, flows: 250, load: 0.9, seed: 17}},
		{"rotor12x5/rg", refSpec{geo: 3, mode: rg, flows: 250, load: 0.9, seed: 18}},
		{"rotor12x5/ideal_failed_lowload", refSpec{geo: 3, mode: ideal, failed: true, flows: 60, load: 0.01, seed: 19}},
		{"grouped72/rg", refSpec{geo: 4, mode: rg, flows: 300, load: 0.8, seed: 20}},
		{"grouped72/ideal", refSpec{geo: 4, mode: ideal, flows: 300, load: 0.8, seed: 21}},
		{"planner_static/rg", refSpec{geo: 0, planner: "static", mode: rg, flows: 250, load: 0.8, seed: 22}},
		{"planner_rotor/ideal", refSpec{geo: 0, planner: "rotor", mode: ideal, flows: 250, load: 0.8, seed: 23}},
		{"planner_rotor/rg_failed", refSpec{geo: 2, planner: "rotor", mode: rg, failed: true, flows: 250, load: 0.8, seed: 24}},
		{"planner_pulse/direct", refSpec{geo: 0, planner: "pulse", mode: direct, flows: 250, load: 0.8, seed: 25}},
		{"planner_pulse/direct_paced_lowload", refSpec{geo: 3, planner: "pulse", mode: direct, paced: true, flows: 60, load: 0.01, seed: 26}},
		{"planner_negotiator/direct", refSpec{geo: 0, planner: "negotiator", mode: direct, flows: 250, load: 0.8, seed: 27}},
		{"planner_negotiator/direct_failed", refSpec{geo: 3, planner: "negotiator", mode: direct, failed: true, flows: 200, load: 0.8, seed: 28}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkAgainstReference(t, c.sp) })
	}
}

// FuzzSlotLoop explores the same space as TestReferenceSlotLoop. The
// demand-aware planners (pulse, negotiator) light only pairs with
// direct demand, so they run in ModeDirect.
func FuzzSlotLoop(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(80))
	f.Add(uint64(2), uint8(2), uint8(3), uint8(1), uint8(0x23), uint8(40))
	f.Add(uint64(3), uint8(3), uint8(4), uint8(2), uint8(0x15), uint8(60))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(1), uint8(0xEC), uint8(20))
	f.Fuzz(func(t *testing.T, seed uint64, geo, planner, mode, flags, flows uint8) {
		sp := refSpec{
			geo:      int(geo) % len(refGeometries),
			planner:  []string{"", "", "static", "rotor", "pulse", "negotiator"}[planner%6],
			mode:     Mode(mode % 3),
			failed:   flags&1 != 0,
			paced:    flags&2 != 0,
			noDirect: flags&4 != 0,
			instant:  flags&8 != 0,
			reorder:  flags&16 != 0,
			flows:    10 + int(flows)%150,
			load:     []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1}[flags>>5],
			seed:     seed,
		}
		if sp.planner == "pulse" || sp.planner == "negotiator" {
			sp.mode = ModeDirect
		}
		if sp.geo == 4 {
			sp.flows = min(sp.flows, 60) // 72 nodes: keep each run short
		}
		checkAgainstReference(t, sp)
	})
}
