package wire

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/rng"
	"sirius/internal/telemetry"
)

// explorerSeeds is FuzzMembership's seed corpus, run by every go test:
// each seed draws one fabric, one plan and one interleaving.
const explorerSeeds = 1000

// FuzzMembership explores the membership machine under seeded
// interleavings: N machines joined as the grating joins them, every
// node-side fault.Plan kind (crash, flap, restart, expand, drain, readd)
// plus grey loss on a link, and a seeded choice of what happens next —
// which node's transmit side steps, which input the grating routes, which
// output delivers. After each run every node must have finished (no
// wedge), every node that held the whole horizon must have applied the
// same switches and recorded the same failures, and every node's sent and
// received counts must equal what the agreed timeline implies.
func FuzzMembership(f *testing.F) {
	for s := uint64(1); s <= explorerSeeds; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		x, err := newExplorer(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := x.run(); err != nil {
			t.Fatalf("seed %d, %d nodes, %d epochs, plan %s:\n%v", seed, x.nodes, x.epochs, x.plan.Canonical(), err)
		}
	})
}

// xframe is one frame in flight: the cell and the output port it is for.
type xframe struct {
	dst int
	c   cell.Cell
}

// explorer runs N membership machines over the grating's links. Every
// node writes one stream into the grating (in) and reads one stream out
// of it (out), as over its TCP connection; the grating routes each input
// in order into the outputs. So two cells from one sender to one receiver
// arrive in the order sent (per-pair FIFO), and a cell one node sends
// after hearing another's lands behind everything that other node sent
// the same receiver before it. Leaving and coming back loses and reorders
// nothing: the emulator parks and replays (docs/PROTOCOL.md).
type explorer struct {
	nodes, epochs int
	plan          *fault.Plan
	r             *rng.RNG

	m       []*membership
	stats   []NodeStats
	in, out [][]xframe

	// Sources of the next step: for node i, its transmit side (i), its
	// grating input (nodes+i) and its grating output (2*nodes+i). The
	// enabled source with the highest priority steps next, and a
	// priority is redrawn now and then, so one source can be starved for
	// long stretches, the way the races between links are found.
	prio    []uint64
	reroll  int
	blocked []bool // the transmit side waits for input
	waitNo  []int  // its current epoch wait's number, 0 for a wait with no timeout
	since   []int  // and the step at which that epoch wait began
	gone    []bool
	clock   int
}

// newExplorer draws a fabric of 4-7 nodes and a plan from seed; the
// horizon ends a few epochs after the plan's last operation settles.
func newExplorer(seed uint64) (*explorer, error) {
	r := rng.New(seed)
	x := &explorer{nodes: 4 + r.Intn(4), r: r}
	x.plan, x.epochs = drawPlan(r, x.nodes)
	if err := x.plan.Validate(x.nodes); err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	x.stats = make([]NodeStats, x.nodes)
	for i := 0; i < x.nodes; i++ {
		cfg := NodeConfig{ID: i, Nodes: x.nodes, Epochs: x.epochs, Plan: x.plan, Telemetry: reg}
		tel := newNodeTel(cfg)
		m, err := newMembership(cfg, &x.stats[i], &tel)
		if err != nil {
			return nil, err
		}
		x.m = append(x.m, m)
	}
	x.in, x.out = make([][]xframe, x.nodes), make([][]xframe, x.nodes)
	x.prio = make([]uint64, 3*x.nodes)
	for s := range x.prio {
		x.prio[s] = r.Uint64()
	}
	x.reroll = 1 << (2 + r.Intn(7))
	x.blocked, x.gone = make([]bool, x.nodes), make([]bool, x.nodes)
	x.waitNo, x.since = make([]int, x.nodes), make([]int, x.nodes)
	return x, nil
}

// drawPlan scripts a plan on nodes of their own and returns it with a
// horizon past its last switch. First the planned operations, at epochs
// 1-10 and free to overlap: a drain with a re-add, a restart or neither,
// up to two joiners (each at the drain's epoch half the time) and a flap.
// Then, each once everything before it has settled, the faults: a crash
// with or without a restart, and a grey window on one link, short enough
// to absorb or long enough to eject its sender. Two founders keep the
// whole horizon.
func drawPlan(r *rng.RNG, nodes int) (*fault.Plan, int) {
	plan := &fault.Plan{Seed: 1}
	add := func(e fault.Event) { plan.Events = append(plan.Events, e) }
	ids := r.Perm(nodes)
	keep, free := ids[:2], ids[2:] // keep: the full horizon, a grey window's receiver
	next := func() (int, bool) {
		if len(free) == 0 || r.Intn(3) == 0 {
			return 0, false
		}
		p := free[0]
		free = free[1:]
		return p, true
	}
	t, d := 14, -1
	if p, ok := next(); ok {
		d = 1 + r.Intn(10)
		add(fault.Event{Kind: fault.Drain, Node: p, Epoch: d})
		switch r.Intn(3) {
		case 0:
			add(fault.Event{Kind: fault.Readd, Node: p, Epoch: d + 1 + r.Intn(4)})
		case 1:
			add(fault.Event{Kind: fault.Restart, Node: p, Epoch: d + 1 + r.Intn(4)})
		}
		t = max(t, d+10)
	}
	for k := 0; k < 2; k++ {
		// Half the joiners switch in at the drained node's last epoch or
		// at its leave: a welcome back that lands early must not cost
		// that last epoch the join due at it, and a joiner admitted at
		// the leave does not wait for the drained node at all.
		e := 1 + r.Intn(10)
		if d > 1 && r.Intn(2) == 0 {
			e = d - r.Intn(2)
		}
		if p, ok := next(); ok {
			add(fault.Event{Kind: fault.Expand, Node: p, Epoch: e})
		}
	}
	if p, ok := next(); ok {
		add(fault.Event{Kind: fault.Flap, Node: p, Epoch: 1 + r.Intn(12)})
	}
	if p, ok := next(); ok {
		add(fault.Event{Kind: fault.Crash, Node: p, Epoch: t})
		if r.Intn(2) == 0 {
			add(fault.Event{Kind: fault.Restart, Node: p, Epoch: t + 1 + r.Intn(6)})
		}
		t += 10
	}
	if p, ok := next(); ok {
		// 1-2 epochs are absorbed; to the end ejects the sender.
		until := t + 1 + r.Intn(2)
		if r.Intn(2) == 0 {
			until = 0
		}
		add(fault.Event{Kind: fault.Grey, Src: p, Dst: keep[r.Intn(2)], Epoch: t, Until: until})
		t += 8
	}
	return plan, t + 4 + r.Intn(4)
}

// run steps the fabric until every node has left for good, and checks it.
func (x *explorer) run() error {
	for ; x.clock < 1<<22; x.clock++ {
		if x.clock%x.reroll == 0 {
			// Redraw one priority; a quarter of the time, starve the
			// source instead.
			s, p := x.r.Intn(len(x.prio)), x.r.Uint64()
			if x.r.Intn(4) == 0 {
				p = 0
			}
			x.prio[s] = p
		}
		src := -1
		for s := range x.prio {
			if x.enabled(s) && (src < 0 || x.prio[s] > x.prio[src]) {
				src = s
			}
		}
		i := src % x.nodes
		var err error
		switch {
		case src < 0:
			err = x.quiescent()
		case src < x.nodes:
			err = x.tx(i)
		case src < 2*x.nodes:
			x.route(i)
		default:
			x.deliver(i)
		}
		if err == errFinished {
			return x.check()
		}
		if err != nil {
			return err
		}
	}
	return fmt.Errorf("no end after %d steps: %s", x.clock, x.describe())
}

var errFinished = fmt.Errorf("every node has left")

func (x *explorer) enabled(s int) bool {
	i := s % x.nodes
	switch s / x.nodes {
	case 0:
		return !x.blocked[i] && !x.gone[i]
	case 1:
		return len(x.in[i]) > 0
	}
	return len(x.out[i]) > 0
}

// quiescent handles a fabric with no frame in flight and every transmit
// side waiting. The epoch wait that began first times out: a real
// SuspectTimeout outlasts any delivery, so a gate times out only when no
// cell in flight can unblock it, and the gates that began waiting earlier
// time out first.
func (x *explorer) quiescent() error {
	first := -1
	for i := range x.m {
		if !x.gone[i] && x.waitNo[i] != 0 && (first < 0 || x.since[i] < x.since[first]) {
			first = i
		}
	}
	if first < 0 {
		if slices.Contains(x.gone, false) {
			return fmt.Errorf("wedged: %s", x.describe())
		}
		return errFinished
	}
	x.blocked[first], x.waitNo[first] = false, 0
	if err := x.m[first].timeout(); err != nil {
		return fmt.Errorf("node %d: %w", first, err)
	}
	return nil
}

// tx takes one step of node i's transmit side, as the driver would.
func (x *explorer) tx(i int) error {
	m := x.m[i]
	st, err := m.next()
	if err != nil {
		return fmt.Errorf("node %d: %w", i, err)
	}
	switch st.kind {
	case stepWait:
		x.blocked[i] = true
		if st.wait != x.waitNo[i] {
			x.waitNo[i], x.since[i] = st.wait, x.clock
		}
	case stepHello:
		for _, c := range st.cells {
			x.in[i] = append(x.in[i], xframe{int(c.Dst), c})
		}
	case stepSend:
		data, welcomes := m.transmit(st.g)
		for _, cells := range [][]cell.Cell{data, welcomes} {
			for _, c := range cells {
				x.in[i] = append(x.in[i], xframe{int(c.Dst), c})
			}
		}
		x.stats[i].Sent += len(data)
	case stepLeave:
		x.gone[i] = !st.back
	}
	return nil
}

// route moves the head of node i's input through the grating, where a
// grey window may blackhole it.
func (x *explorer) route(i int) {
	f := x.in[i][0]
	x.in[i] = x.in[i][1:]
	if !x.plan.GreyDrop(i, f.dst, int(f.c.Seq>>8)) {
		x.out[f.dst] = append(x.out[f.dst], f)
	}
}

// deliver hands the head of node j's output to its machine.
func (x *explorer) deliver(j int) {
	f := x.out[j][0]
	x.out[j] = x.out[j][1:]
	x.m[j].receive(&f.c)
	x.blocked[j] = false
}

// check holds the finished run to the timeline the full-horizon nodes
// agree on.
func (x *explorer) check() error {
	var ref *NodeStats
	for i := range x.stats {
		st := &x.stats[i]
		if st.Misrouted != 0 {
			return fmt.Errorf("node %d misrouted %d cells", i, st.Misrouted)
		}
		if st.Crashed || st.Ejected || st.Drained || st.Rejoins > 0 || st.JoinedAt > 0 {
			continue
		}
		if ref == nil {
			ref = st
			continue
		}
		if !slices.Equal(st.Changes, ref.Changes) {
			return fmt.Errorf("timelines differ: node %d %+v, node %d %+v", ref.Node, ref.Changes, i, st.Changes)
		}
		a, b := sortedFailures(ref.Failures), sortedFailures(st.Failures)
		if !slices.Equal(a, b) {
			return fmt.Errorf("failure records differ: node %d %+v, node %d %+v", ref.Node, a, i, b)
		}
	}
	if ref == nil {
		return fmt.Errorf("no node held the whole horizon")
	}

	// Replay the agreed timeline: member[e][p] is the membership at epoch
	// e. A node is present — transmits, and counts what it receives — at
	// the epochs it is a member for, less a crash's outage until the
	// node's next admission.
	member := make([][]bool, x.epochs)
	cur := make([]bool, x.nodes)
	for p := range cur {
		cur[p] = x.plan.ExpandEpoch(p) < 0
	}
	next := 0
	for e := range member {
		for ; next < len(ref.Changes) && ref.Changes[next].Epoch <= e; next++ {
			ch := ref.Changes[next]
			cur[ch.Node] = ch.Kind == "join"
		}
		member[e] = slices.Clone(cur)
	}
	present := func(p, e int) bool {
		if c := x.plan.CrashEpoch(p); c >= 0 && e >= c {
			back := slices.ContainsFunc(ref.Changes, func(ch MemberChange) bool {
				return ch.Node == p && ch.Kind == "join" && ch.Epoch > c && ch.Epoch <= e
			})
			if !back {
				return false
			}
		}
		return member[e][p]
	}
	for j, st := range x.stats {
		sent, received := 0, 0
		for e := 0; e < x.epochs; e++ {
			if !present(j, e) {
				continue
			}
			for i := 0; i < x.nodes; i++ {
				if member[e][i] {
					sent++
				}
				if present(i, e) && !x.plan.GreyDrop(i, j, e) {
					received++
				}
			}
		}
		if st.Sent != sent || st.Received != received {
			return fmt.Errorf("node %d sent/received %d/%d, the timeline %+v implies %d/%d",
				j, st.Sent, st.Received, ref.Changes, sent, received)
		}
		if e := x.plan.ExpandEpoch(j); e >= 0 && st.JoinedAt != e+2 {
			return fmt.Errorf("joiner %d admitted at %d, want %d", j, st.JoinedAt, e+2)
		}
	}
	return nil
}

func sortedFailures(fs []PeerFailure) []PeerFailure {
	out := slices.Clone(fs)
	slices.SortFunc(out, func(a, b PeerFailure) int { return a.Peer - b.Peer })
	return out
}

// describe lists where each node stands, for a wedge report.
func (x *explorer) describe() string {
	var b strings.Builder
	for i, m := range x.m {
		fmt.Fprintf(&b, "\n  node %d: phase %d at epoch %d, gap [%d,%d), in %d out %d, heard %v, log %+v",
			i, m.phase, m.g, m.gapFrom, m.gapUntil, len(x.in[i]), len(x.out[i]), m.heard, m.log)
	}
	return b.String()
}
