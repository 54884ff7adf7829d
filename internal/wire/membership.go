package wire

import (
	"fmt"
	"math"
	"slices"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/health"
	"sirius/internal/schedule"
)

// The membership machine: one node's side of the §4.5 protocol that moves
// every node to a recompacted schedule at one agreed epoch, for failures,
// drains, re-adds and joins alike, with no I/O, goroutine or clock. Inputs:
// a cell from a peer (receive), the transmit side asking for its next step
// (next), a blocked epoch wait's timeout (timeout). Outputs: the steps and
// the cells they send, the switches applied, the counts. node.go drives it
// over TCP; FuzzMembership drives several over in-memory links.

// PeerFailure records one peer's detected failure as this node saw it:
// suspicion raised at SuspectEpoch, flood received fabric-wide by
// ConfirmEpoch, and the compacted schedule adopted at SwitchEpoch.
type PeerFailure struct {
	Peer         int
	SuspectEpoch int
	ConfirmEpoch int
	SwitchEpoch  int
}

// MemberChange records one applied membership switch as this node saw
// it: at Epoch the fabric recomputed its schedule because Node failed
// ("fail"), drained out ("leave"), or was admitted ("join"). Every
// survivor that witnessed the whole run records the identical sequence —
// the no-desync acceptance check.
type MemberChange struct {
	Epoch int
	Node  int
	Kind  string // "fail" | "leave" | "join"
}

// changeKind names a membership change. The order is the apply order: a
// gate folds in failures, then leaves, then joins.
type changeKind uint8

const (
	changeFail changeKind = iota
	changeLeave
	changeJoin
)

// kinds is what differs between the kinds, as data: the announcement's
// flag, the MemberChange name, and whether an applied entry is final — a
// join or a leave is once per plan, so its applied entry refuses every
// later proposal, while a suspicion still takes a smaller S after its
// switch and goes when its node is admitted again.
var kinds = [...]struct {
	flag  uint8
	name  string
	final bool
}{
	changeFail:  {cell.FlagSuspect, "fail", false},
	changeLeave: {cell.FlagDrain, "leave", true},
	changeJoin:  {cell.FlagJoin, "join", true},
}

// change is one entry of the change log: node's change of the given kind,
// to switch at epoch s — the smallest proposal heard — and whether a gate
// has applied it.
type change struct {
	kind changeKind
	node int
	s    int
	done bool
}

// stepKind is what the transmit side does next.
type stepKind uint8

const (
	stepWait  stepKind = iota // block until input arrives (or, in an epoch wait, the timeout)
	stepHello                 // send cells: a joiner's hello to every other port
	stepSend                  // transmit epoch g
	stepLeave                 // half-close; wait for the relink if the node comes back
)

// step is one transmit-side decision of the machine.
type step struct {
	kind  stepKind
	cells []cell.Cell // stepHello: the hellos
	g     int         // stepSend: the epoch to transmit
	wait  int         // stepWait: the epoch wait's number, 0 for a wait with no timeout
	back  bool        // stepLeave: the node comes back (a flap, or a scripted rejoin)
}

// phase is where the transmit side stands.
type phase uint8

const (
	phaseHello  phase = iota // a joiner's first act
	phaseAdmit               // absent: wait for a welcome
	phaseEpoch               // at the top of epoch g
	phaseGate                // wait for epoch g-1, then apply the switches due at g
	phaseHold                // raise the gate's proposals; hold for scripted joiners' hellos
	phaseDepart              // wait for epoch g-1, then leave
	phaseGone                // left for good
)

// membership is one node's membership state and the transmit side's
// position in it.
type membership struct {
	me, nodes, epochs int
	plan              *fault.Plan
	// The node's own scripted epochs (-1 none). The drain is announced at
	// DrainEpoch, whose gate proposes switch epoch +2; the node transmits
	// up to that switch and detaches there.
	crashAt, flapAt, detachAt, rejoinAt int

	heard     []int // highest epoch heard from each peer (-1 never)
	obs       *health.Observer
	member    []bool // the applied membership
	helloSeen []bool // scripted joiners that have said hello
	log       []change

	// [gapFrom, gapUntil) is this node's absence from the fabric: the
	// epochs it is not a member for, whose data cells it ignores. A
	// founder has none (gapFrom = MaxInt) and a joiner is absent from 0.
	// A scripted crash or drain opens the gap at the start, an ejection
	// when it departs, and the first welcome to land closes it at its
	// switch epoch. admitting marks an admission the node has not yet
	// transmitted under; a welcome with a smaller switch epoch may still
	// replace it (min-S).
	gapFrom, gapUntil int
	admitting         bool
	everMember        bool
	// dormant marks the transmit side idle by plan: absent from the
	// fabric, waiting to be admitted or gone and reading it out. early
	// holds a welcome that landed before the node left.
	dormant bool
	early   *cell.Cell

	base    schedule.Schedule // the full-fabric schedule Compact works from
	sched   schedule.Schedule // current schedule (over the members)
	live    []int             // compact index -> original node id
	myIdx   int               // this node's index in the current schedule
	txCells []cell.Cell       // transmit's data cells, reused

	g          int
	phase      phase
	waited     bool // the current phase's wait for epoch g-1 is over
	wait       int  // numbers the epoch waits, for the driver's deadline
	stay, back bool // the departure under way: a flap stays a member
	err        error

	stats *NodeStats
	tel   *nodeTel
}

// newMembership builds a node's machine from a defaulted configuration:
// founders are members from epoch 0 on the full schedule, and scripted
// joiners start dormant, absent from epoch 0, with a hello to send.
func newMembership(cfg NodeConfig, stats *NodeStats, tel *nodeTel) (*membership, error) {
	plan := cfg.Plan
	if joiners := len(plan.Joiners()); cfg.Nodes-joiners < 2 {
		return nil, fmt.Errorf("wire: only %d initial members (need >= 2): %d of %d nodes join late",
			cfg.Nodes-joiners, joiners, cfg.Nodes)
	}
	if err := validateLifecycleHorizon(cfg); err != nil {
		return nil, err
	}
	base, err := schedule.NewGrouped(cfg.Nodes, cfg.Nodes, 1)
	if err != nil {
		return nil, err
	}
	obs, err := health.NewObserver(cfg.Nodes, missThreshold)
	if err != nil {
		return nil, err
	}
	m := &membership{
		me: cfg.ID, nodes: cfg.Nodes, epochs: cfg.Epochs, plan: plan,
		crashAt: plan.CrashEpoch(cfg.ID), flapAt: plan.FlapEpoch(cfg.ID),
		detachAt: -1, rejoinAt: plan.RejoinEpoch(cfg.ID),
		heard:     make([]int, cfg.Nodes),
		obs:       obs,
		member:    make([]bool, cfg.Nodes),
		helloSeen: make([]bool, cfg.Nodes),
		gapFrom:   math.MaxInt,
		gapUntil:  math.MaxInt,
		base:      base,
		phase:     phaseEpoch,
		stats:     stats,
		tel:       tel,
	}
	if d := plan.DrainEpoch(cfg.ID); d >= 0 {
		m.detachAt = d + 2
	}
	for p := range m.heard {
		m.heard[p] = -1
		m.member[p] = plan.ExpandEpoch(p) < 0
	}
	// A scripted crash or drain is absent from its departure epoch from the
	// start: a cell or welcome of that epoch or later can land before the
	// node has sent its last epoch — from a joiner admitted there, whose
	// first gate waits only for its admitter.
	for _, at := range []int{m.crashAt, m.detachAt} {
		if at >= 0 {
			m.gapFrom = at
		}
	}
	m.everMember = m.member[cfg.ID]
	if !m.everMember {
		m.dormant, m.gapFrom, m.phase = true, 0, phaseHello
	}
	if !plan.Empty() {
		stats.RxPerEpoch = make([]int, cfg.Epochs)
	}
	return m, m.rebuild()
}

// validateLifecycleHorizon rejects plans whose lifecycle switch epochs
// (epoch+2 at the earliest) land at or beyond the run horizon: an
// admission never applied leaves a dormant node waiting forever, and a
// drain that never switches is a silent no-op.
func validateLifecycleHorizon(cfg NodeConfig) error {
	if cfg.Plan == nil {
		return nil
	}
	for _, ev := range cfg.Plan.Events {
		switch ev.Kind {
		case fault.Expand, fault.Drain, fault.Restart, fault.Readd:
			if ev.Epoch+2 >= cfg.Epochs {
				return fmt.Errorf("wire: %s of node %d switches at epoch %d, at or past the run's %d epochs",
					ev.Kind, ev.Node, ev.Epoch+2, cfg.Epochs)
			}
		}
	}
	return nil
}

// ---- Transmit side ----

// next advances the transmit side as far as it goes without input and
// returns the step the driver must take. After stepSend the machine is at
// the top of the next epoch; after stepLeave it has left, or — coming
// back — is at the flap's gate or waiting to be admitted.
func (m *membership) next() (step, error) {
	for m.err == nil {
		if m.admitting && m.g > m.gapUntil && m.phase >= phaseEpoch && m.phase <= phaseHold {
			// A welcome with a smaller switch epoch has replaced the
			// admission taken up, before the node's first transmission
			// under it: take that up instead.
			m.phase = phaseAdmit
		}
		switch m.phase {
		case phaseHello:
			// The not-yet-admitted joiner's only transmission. The emulator
			// parks frames for ports that register later, so hellos survive
			// any start order; dormant receivers record them too, so a
			// joiner admitted first still knows about one admitted later.
			m.phase = phaseAdmit
			st := step{kind: stepHello}
			for p := 0; p < m.nodes; p++ {
				if p != m.me {
					st.cells = append(st.cells, cell.Cell{Kind: cell.KindControl, Flags: cell.FlagHello,
						Src: uint16(m.me), Dst: uint16(p)})
				}
			}
			return st, nil
		case phaseAdmit:
			if m.gapUntil == math.MaxInt {
				return step{kind: stepWait}, nil
			}
			// Take the admission up: transmit from its switch epoch on, on
			// the schedule compacted over the welcomed membership.
			if m.dormant {
				if m.everMember {
					m.stats.Rejoins++
				}
				m.everMember = true
			}
			if m.stats.Rejoins == 0 {
				m.stats.JoinedAt = m.gapUntil
			}
			m.g, m.dormant = m.gapUntil, false
			m.phase = phaseEpoch
			m.err = m.rebuild()
		case phaseEpoch:
			m.top()
		case phaseGate, phaseDepart:
			if !m.waited {
				if !m.arrived() {
					return step{kind: stepWait, wait: m.wait}, nil
				}
				m.waited = true
			}
			if m.phase == phaseDepart {
				st := step{kind: stepLeave, back: m.back}
				switch {
				case !m.back:
					m.phase = phaseGone
				case m.stay:
					m.await(phaseGate)
				default:
					m.phase = phaseAdmit
				}
				return st, nil
			}
			m.phase = phaseHold
			m.switchDue()
		case phaseHold:
			if m.propose() {
				return step{kind: stepWait}, nil
			}
			// A node admitted at a plan-anchored switch proposes it at its
			// first gate, due there.
			if m.switchDue() {
				continue
			}
			m.phase, m.admitting = phaseEpoch, false
			m.g++
			return step{kind: stepSend, g: m.g - 1}, nil
		case phaseGone:
			return step{kind: stepWait}, nil
		}
	}
	return step{}, m.err
}

// switchDue applies every change due at gate g and compacts the schedule
// over the new membership, and reports whether the fabric has compacted
// this node out, which then departs.
func (m *membership) switchDue() (ejected bool) {
	if !m.applyDue() {
		return false
	}
	m.tel.switches.Inc()
	m.tel.tracer.Instant("schedule-switch", "wire.node", m.me, nil)
	if !m.member[m.me] {
		// Only the failure path reaches this: a planned drain detaches
		// before gating past its own leave epoch.
		m.stats.Ejected = true
		m.tel.ejected.Inc()
		m.depart(false, false)
		return true
	}
	m.err = m.rebuild()
	return false
}

// top decides epoch g at its top: past the run's end the node leaves as
// a member, a scripted crash, flap or drain leaves there too, and any
// other epoch goes to its gate.
func (m *membership) top() {
	g := m.g
	if g >= m.epochs {
		m.depart(true, false)
		return
	}
	if g != m.crashAt && g != m.flapAt && g != m.detachAt {
		m.await(phaseGate)
		return
	}
	flap := g == m.flapAt
	event := "flap"
	switch g {
	case m.crashAt:
		// Fail-stop: no farewell. The peers notice from silence alone.
		event = "crash"
		m.stats.Crashed = true
	case m.detachAt:
		// The fabric agreed (at gate detachAt-2) to stop scheduling this
		// node from here. The plan's drain is consumed: a re-added node
		// must not propose it again (it detached before applying its own
		// leave, and a welcome back may already have reset the log).
		event = "drain-detach"
		m.stats.Drained = true
		i, ok := m.find(changeLeave, m.me)
		if !ok {
			m.log = slices.Insert(m.log, i, change{kind: changeLeave, node: m.me, s: g})
		}
		m.log[i].done = true
	}
	m.tel.tracer.Instant(event, "wire.node", m.me, nil)
	m.depart(flap, flap || m.rejoinAt >= 0)
}

// depart is the one way off the fabric, at the boundary before epoch g:
// wait, as a gate does, for every live member's epoch g-1, so nothing sent
// to this node before g is still in flight (per-pair FIFO); then leave.
// Unless it stays a member (a flap, the run's end), the node is absent
// from g on, dormant, and an early welcome takes effect now.
func (m *membership) depart(stay, back bool) {
	if !stay {
		if m.gapFrom != m.g { // an ejection; a scripted departure's gap is open
			m.gapFrom, m.gapUntil = m.g, math.MaxInt
		}
		m.dormant = true
		if m.early != nil {
			m.admit(m.early)
			m.early = nil
		}
	}
	m.stay, m.back = stay, back
	m.await(phaseDepart)
}

// await enters a phase that first waits for epoch g-1.
func (m *membership) await(ph phase) {
	m.phase, m.waited = ph, false
	m.wait++
}

// arrived reports whether epoch g-1 has arrived from every unsuspected
// member, this node included (its self-loop slot proves its own link). A
// gate waits for it before applying the switches due at g (rule (a)), so
// the fabric never runs ahead of a node leaving at g.
func (m *membership) arrived() bool {
	for p, in := range m.member {
		if in && m.heard[p] < m.g-1 && !m.has(changeFail, p) {
			return false
		}
	}
	return true
}

// timeout ends a blocked epoch wait: each lagging member is judged by the
// gap-based health.Observer, a member silent for missThreshold consecutive
// epochs is suspected with the agreed switch epoch g+2 (one epoch to
// flood, one to align), and the wait ends either way.
func (m *membership) timeout() error {
	for p, in := range m.member {
		if !in || m.heard[p] >= m.g-1 || m.has(changeFail, p) || !m.obs.Judge(p, m.heard[p], m.g) {
			continue
		}
		if p == m.me {
			return fmt.Errorf("wire: node %d: own transmissions not returning (link dead beyond epoch %d)",
				m.me, m.heard[p])
		}
		if m.record(changeFail, p, m.g+2) {
			m.noteSuspect(p, false)
		}
	}
	m.waited = true
	return nil
}

// propose raises gate g's lifecycle proposals from the shared plan —
// every member evaluates the same plan against the same (epoch-
// deterministic) membership, so proposals need no coordinator — and
// reports whether the gate must hold for a scripted joiner that has not
// yet said hello.
func (m *membership) propose() (hold bool) {
	if m.plan == nil {
		return false
	}
	g := m.g
	for _, ev := range m.plan.Events {
		p := ev.Node
		switch ev.Kind {
		case fault.Expand:
			// Once the joiner has said hello, admit it at E+2: anchored to
			// the plan, not to when each member heard the hello.
			if ev.Epoch > g || m.member[p] || m.has(changeJoin, p) {
				continue
			}
			if !m.helloSeen[p] {
				hold = true
				continue
			}
			m.record(changeJoin, p, ev.Epoch+2)
		case fault.Restart, fault.Readd:
			// g+2 from the first gate at which the node is scripted back
			// and out of the membership, the same gate fabric-wide; a node
			// that proposes late converges via the flooded minimum.
			if p != m.me && ev.Epoch <= g && !m.member[p] && !m.has(changeJoin, p) {
				m.record(changeJoin, p, g+2)
			}
		case fault.Drain:
			// Every member, the draining node included, proposes D+2 —
			// unless admitted after it: the welcomed membership holds the
			// drain, and the node may since have been re-added.
			if ev.Epoch <= g && g <= ev.Epoch+2 && m.member[p] && !m.has(changeLeave, p) {
				m.record(changeLeave, p, ev.Epoch+2)
			}
		}
	}
	return hold
}

// transmit returns epoch g's cells: the header of one data cell per slot,
// with the changes whose switch epoch is later than g rotated over them,
// then a welcome for each pending joiner but this node — the join
// announcement with the membership projected to its switch epoch. Every
// member welcomes each flood epoch, so grey loss toward some members
// cannot starve a joiner. The data cells reuse one buffer.
func (m *membership) transmit(g int) (data, welcomes []cell.Cell) {
	var anns []change
	for _, e := range m.log {
		if e.s <= g {
			continue
		}
		anns = append(anns, e)
		if e.kind == changeJoin && e.node != m.me {
			w := cell.Cell{Kind: cell.KindControl, Src: uint16(m.me), Dst: uint16(e.node),
				Seq: uint32(g) << 8, Payload: m.project(e.s)}
			w.SetAnnouncement(cell.FlagJoin, e.node, e.s)
			welcomes = append(welcomes, w)
		}
	}
	slots := m.sched.SlotsPerEpoch()
	m.txCells = slices.Grow(m.txCells[:0], slots)[:slots]
	for slot := range m.txCells {
		m.txCells[slot] = cell.Cell{Kind: cell.KindData, Src: uint16(m.me),
			Dst: uint16(m.live[m.sched.Dst(m.myIdx, 0, slot)]), Seq: uint32(g)<<8 | uint32(slot)}
		if len(anns) > 0 {
			// Rotate by epoch as well as slot: a destination sits at the
			// same slot every epoch, so a fixed slot%k assignment would
			// show it the same announcement each flood epoch and starve it
			// of the others.
			a := anns[(slot+g)%len(anns)]
			m.txCells[slot].SetAnnouncement(kinds[a.kind].flag, a.node, a.s)
		}
	}
	return m.txCells, welcomes
}

// project returns the membership bitmap as it will stand at switch epoch
// s: pending failures and leaves due by s out, pending joins due by s in
// (the log sorts joins last). One bit per port, LSB-first within each
// byte.
func (m *membership) project(s int) []byte {
	bits := make([]byte, (m.nodes+7)/8)
	for p, in := range m.member {
		if in {
			bits[p/8] |= 1 << (p % 8)
		}
	}
	for _, e := range m.log {
		if e.done || e.s > s {
			continue
		}
		if e.kind == changeJoin {
			bits[e.node/8] |= 1 << (e.node % 8)
		} else {
			bits[e.node/8] &^= 1 << (e.node % 8)
		}
	}
	return bits
}

// ---- The change log ----

// find returns the index of the log entry for (k, p), or where it would be
// inserted. The log is sorted by kind, then node: the apply order.
func (m *membership) find(k changeKind, p int) (int, bool) {
	return slices.BinarySearchFunc(m.log, change{kind: k, node: p}, func(a, b change) int {
		if a.kind != b.kind {
			return int(a.kind) - int(b.kind)
		}
		return a.node - b.node
	})
}

// has reports whether the log holds a change k for p (for a failure: p is
// suspected, locally or by flood).
func (m *membership) has(k changeKind, p int) bool {
	_, ok := m.find(k, p)
	return ok
}

// record registers a proposal of change k for node p at switch epoch s,
// and reports whether it is a new entry. Concurrent proposals converge on
// the minimum S. A join needs a non-member and a leave a member.
func (m *membership) record(k changeKind, p, s int) (fresh bool) {
	if k == changeJoin && m.member[p] || k == changeLeave && !m.member[p] {
		return false
	}
	i, ok := m.find(k, p)
	switch {
	case !ok:
		m.log = slices.Insert(m.log, i, change{kind: k, node: p, s: s})
	case m.log[i].s <= s || m.log[i].done && kinds[k].final:
		return false
	default:
		m.log[i].s = s
	}
	if k == changeFail {
		// The suspicion record: raised at S-2 by its originator, flooded
		// fabric-wide by S-1.
		f := PeerFailure{Peer: p, SuspectEpoch: s - 2, ConfirmEpoch: s - 1, SwitchEpoch: s}
		if j := slices.IndexFunc(m.stats.Failures, func(f PeerFailure) bool { return f.Peer == p }); j >= 0 {
			m.stats.Failures[j] = f
		} else {
			m.stats.Failures = append(m.stats.Failures, f)
		}
	}
	return !ok
}

// noteSuspect counts a first suspicion of p, raised here or adopted from
// the flood, flags the fabric degraded until the schedule switch resolves
// it, and drops a timeline marker.
func (m *membership) noteSuspect(p int, adopted bool) {
	if adopted {
		m.tel.suspAdopted.Inc()
	} else {
		m.tel.suspRaised.Inc()
	}
	m.tel.health.SetCondition(m.tel.peerKey(p), "peer suspected failed")
	m.tel.tracer.Instant("suspect", "wire.node", m.me, nil)
}

// applyDue folds every change due by gate g into the membership, in log
// order — failures (§4.5 compaction), then leaves, then joins, each by
// ascending node — and reports whether the schedule must be rebuilt.
func (m *membership) applyDue() (changed bool) {
	for i := 0; i < len(m.log); i++ {
		e := m.log[i]
		if e.done || e.s > m.g {
			continue
		}
		m.log[i].done = true
		if e.kind == changeFail {
			// The switch resolves the suspicion: the fabric has agreed on
			// the failure and routes around it from here on.
			m.tel.health.ClearCondition(m.tel.peerKey(e.node))
			changed = true
		}
		in := e.kind == changeJoin
		if m.member[e.node] == in {
			continue
		}
		m.member[e.node] = in
		m.stats.Changes = append(m.stats.Changes, MemberChange{Epoch: e.s, Node: e.node, Kind: kinds[e.kind].name})
		changed = true
		if in {
			// The joiner transmits from S on: seed heard at S-1 so the
			// next gate does not count the silence before S against it,
			// and clear any suspicion of a previous incarnation.
			m.heard[e.node] = max(m.heard[e.node], e.s-1)
			m.obs.Forgive(e.node)
			if j, ok := m.find(changeFail, e.node); ok {
				m.log = slices.Delete(m.log, j, j+1)
				i-- // failures sort before joins
			}
		}
	}
	return changed
}

// rebuild recomputes the compacted schedule from the membership.
func (m *membership) rebuild() error {
	var inactive []int
	for p, in := range m.member {
		if !in {
			inactive = append(inactive, p)
		}
	}
	compacted, live, err := schedule.Compact(m.base, inactive)
	if err != nil {
		return fmt.Errorf("wire: node %d: compact: %w", m.me, err)
	}
	m.sched, m.live, m.myIdx = compacted, live, slices.Index(live, m.me)
	return nil
}

// ---- Receive side ----

// receive takes one decoded cell in and reports whether it is a counted
// data cell addressed to this node, whose payload the driver verifies.
//
// A node acts on a data cell only if it is a member at the epoch the cell
// carries (Seq>>8): cells sent to a departed node before the fabric
// compacts it out, and anything reaching a joiner before its switch
// epoch, are ignored. That one rule keeps every count exact.
func (m *membership) receive(c *cell.Cell) (verify bool) {
	ep, src := int(c.Seq>>8), int(c.Src)
	flags, p, s := c.Announcement()
	if c.Kind == cell.KindControl {
		// Control cells ride outside the schedule. Hellos gate scripted
		// expansions. A welcome admits this node at its switch epoch if
		// the node is absent then and has not been admitted yet, or has
		// not yet transmitted under an admission at a later epoch; stale
		// welcomes are ignored, and so are those from a node that is not
		// a member at that epoch (see admit). A welcome is also the one
		// control cell that advances heard: it proves its sender has
		// reached the epoch it was sent in.
		if src >= m.nodes {
			return false
		}
		if c.Flags&cell.FlagHello != 0 {
			m.helloSeen[src] = true
		}
		if flags&cell.FlagJoin != 0 && p == m.me && int(c.Dst) == m.me {
			switch {
			case m.gapFrom <= s && s < m.gapUntil && (m.gapUntil == math.MaxInt || m.admitting) && bit(c.Payload, src):
				m.takeWelcome(c)
			case m.early != nil && m.early.Src == c.Src && int(m.early.Flow) == s:
				m.early.Seq = c.Seq // the admitter's latest welcome, for rule (c) below
			}
			m.heard[src] = max(m.heard[src], ep)
		}
		return false
	}
	if m.gapFrom <= ep && ep < m.gapUntil {
		return false
	}
	if src < m.nodes {
		m.heard[src] = max(m.heard[src], ep)
	}
	if flags != 0 && p < m.nodes {
		for k := range kinds {
			if flags&kinds[k].flag != 0 && m.record(changeKind(k), p, s) && changeKind(k) == changeFail {
				m.noteSuspect(p, true)
			}
		}
	}
	if c.Kind != cell.KindData {
		return false
	}
	m.stats.Received++
	m.tel.received.Inc()
	if ep < len(m.stats.RxPerEpoch) {
		m.stats.RxPerEpoch[ep]++
	}
	if int(c.Dst) != m.me {
		m.stats.Misrouted++
		m.tel.misrouted.Inc()
		return false
	}
	return true
}

// takeWelcome ends the node's absence at the welcome's switch epoch S at
// once, so every cell of epoch S or later is counted, and installs the
// welcome now if the node has left, or else when it leaves, so its last
// epochs run on the membership they began with.
func (m *membership) takeWelcome(c *cell.Cell) {
	m.gapUntil, m.admitting = int(c.Flow), true
	if m.dormant {
		m.admit(c)
		return
	}
	early := *c
	early.Payload = slices.Clone(c.Payload)
	m.early = &early
}

// admit installs a welcome addressed to this node, sent by member Src in
// epoch Seq>>8: the membership as of switch epoch S (Flow). A node
// admitted at the same epoch sends no welcome, so the first gate waits for
// the sender's welcome of epoch S-1 (rule (c)): the sender wrote its
// welcomes to every pending joiner in earlier epochs, and the grating
// routes each input in order, so they are ahead of this node's first cell
// to any of them. The gate waits for members only, so a node that leaves
// at S admits no one.
func (m *membership) admit(c *cell.Cell) {
	s := int(c.Flow)
	for p := range m.member {
		m.member[p] = bit(c.Payload, p)
		// Every node in the welcomed membership is, by the welcome's own
		// construction, scheduled through epoch s-1.
		m.heard[p] = s - 1
		m.obs.Forgive(p)
	}
	m.heard[c.Src] = int(c.Seq >> 8)
	// The one reset: pending changes and suspicions go — the welcomed
	// membership already reflects every resolved one — while the joins
	// and leaves already applied stay, so none is proposed again. Drop the
	// suspicion records that never reached their switch too: re-flooding
	// a suspicion from before the absence could poison the new epoch.
	m.log = slices.DeleteFunc(m.log, func(e change) bool { return !e.done || !kinds[e.kind].final })
	m.stats.Failures = slices.DeleteFunc(m.stats.Failures, func(f PeerFailure) bool { return f.SwitchEpoch > s })
	m.tel.tracer.Instant("welcome", "wire.node", m.me, nil)
}

// bit reports whether node p is in a membership bitmap.
func bit(bitmap []byte, p int) bool {
	return p/8 < len(bitmap) && bitmap[p/8]&(1<<(p%8)) != 0
}
