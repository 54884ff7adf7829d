package sched

import "fmt"

// NegotiaToR models on-demand request/notify reconfiguration: sources
// request circuits for queued traffic, the fabric notifies them of
// granted matchings, and data flows only after the exchange completes.
// Two costs are charged, following the paper's accounting:
//
//   - Control latency: Plan sees the demand matrix one epoch late
//     (requests ride the control plane to the arbiter and notifications
//     ride back). The very first epoch is entirely dark — no requests
//     have arrived yet.
//   - Reconfiguration: a newly established (src, uplink) → dst circuit
//     is dark for Reconfig slots before serving. Circuits are held
//     while requested demand remains and released when it drains (the
//     rotorsim request_matching/release_matching discipline), so
//     long-lived hot pairs amortize the penalty and churny traffic
//     pays it repeatedly.
//
// Receiver ports follow the rotor convention: circuit (src, u) → dst
// occupies receive port u of dst exclusively until released.
//
// A plan costs in proportion to held circuits and live candidates, not
// slots × nodes × uplinks: held links are walked through an ascending
// bitset, and idle links are probed only for sources with live
// candidates, whose lists hold only pairs with demand left. A port
// frees only when a circuit on its uplink releases (the
// available_up/available_dn discipline of rotorsim's OpticalSwitch),
// so once an idle link finds every candidate port busy, it is not
// probed again until its uplink's release generation moves on.
type NegotiaToR struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int

	prev     []int32 // demand sampled one epoch ago (requests in flight)
	havePrev bool
	rem      []int32 // unserved requested demand, consumed as slots are planned
	cand     candSet
	cur      []int32 // (src*uplinks+u) → held dst, -1 if idle
	darkLeft []int32 // (src*uplinks+u) → reconfig slots still owed
	held     bitset  // links (src*uplinks+u) with cur >= 0
	rxBusy   bitset  // receive ports (dst*uplinks+u) held by a circuit

	// Per-plan probe memo, allocated by the first Plan: relGen[u]
	// counts releases on uplink u during this plan; failGen[link] is
	// relGen[u] when the link last found no free candidate port.
	relGen  []int32
	failGen []int32
}

// NewNegotiaToR builds a NegotiaToR scheduler. probeBound caps the
// candidate probes per circuit establishment; 0 means 2×uplinks.
func NewNegotiaToR(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*NegotiaToR, error) {
	switch {
	case nodes < 2:
		return nil, fmt.Errorf("sched: need >= 2 nodes")
	case uplinks < 1:
		return nil, fmt.Errorf("sched: need >= 1 uplink")
	case slotsPerEpoch < 1:
		return nil, fmt.Errorf("sched: need >= 1 slot per epoch")
	case reconfigSlots < 0 || reconfigSlots >= slotsPerEpoch:
		return nil, fmt.Errorf("sched: reconfig slots (%d) must be in [0, slots per epoch)", reconfigSlots)
	case probeBound < 0:
		return nil, fmt.Errorf("sched: probe bound must be >= 0")
	}
	if probeBound == 0 {
		probeBound = 2 * uplinks
	}
	ng := &NegotiaToR{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		prev:     make([]int32, nodes*nodes),
		rem:      make([]int32, nodes*nodes),
		cur:      make([]int32, nodes*uplinks),
		darkLeft: make([]int32, nodes*uplinks),
	}
	// One allocation backs both link-indexed bitsets.
	w := bitsetWords(nodes * uplinks)
	bs := make(bitset, 2*w)
	ng.held, ng.rxBusy = bs[:w:w], bs[w:]
	ng.Reset()
	return ng, nil
}

// Nodes implements Scheduler.
func (g *NegotiaToR) Nodes() int { return g.nodes }

// Uplinks implements Scheduler.
func (g *NegotiaToR) Uplinks() int { return g.uplinks }

// SlotsPerEpoch implements Scheduler.
func (g *NegotiaToR) SlotsPerEpoch() int { return g.slots }

// ConnectionsPerEpoch implements Scheduler: a held circuit can serve a
// pair every slot of the epoch.
func (g *NegotiaToR) ConnectionsPerEpoch() int { return g.slots }

// Plan implements Scheduler.
func (g *NegotiaToR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := g.nodes, g.uplinks
	fillDark(dst[:g.slots*n*up])
	if !g.havePrev {
		// Requests are still in flight: nothing is granted yet.
		copy(g.prev, demand)
		g.havePrev = true
		return 0
	}
	copy(g.rem, g.prev)
	c := &g.cand
	c.build(n, g.probes, g.prev)
	if g.failGen == nil {
		g.relGen = make([]int32, up)
		g.failGen = make([]int32, n*up)
	}
	clear(g.failGen)
	for u := range g.relGen {
		g.relGen[u] = 1
	}
	reconfig := 0
	prune := false // some candidate list emptied since live was pruned
	for slot := 0; slot < g.slots; slot++ {
		base := slot * n * up
		// Serve or release held circuits first, in ascending
		// (src, uplink) order, then establish new ones — a fixed order
		// shared by every replay. src advances with link instead of
		// dividing by up.
		src, lo := 0, 0 // lo = src*up
		for link := g.held.next(0); link >= 0; link = g.held.next(link + 1) {
			for link >= lo+up {
				src, lo = src+1, lo+up
			}
			u := link - lo
			d := g.cur[link]
			r := src*n + int(d)
			if g.rem[r] <= 0 {
				// Requested demand drained: release the circuit.
				g.rxBusy.clear(int(d)*up + u)
				g.held.clear(link)
				g.cur[link] = -1
				g.darkLeft[link] = 0
				g.relGen[u]++
				continue
			}
			if g.darkLeft[link] > 0 {
				g.darkLeft[link]--
				reconfig++
				continue
			}
			dst[base+link] = d
			if g.consume(r, src, d) {
				prune = true
			}
		}
		if prune {
			c.pruneLive()
			prune = false
		}
		// Establish new circuits on idle links, rotating the source
		// start for fairness (pure function of epoch and slot).
		start := int((epoch*int64(g.slots) + int64(slot)) % int64(n))
		if start < 0 {
			start += n
		}
		live, k := c.live, c.liveFrom(start)
		for i := range live {
			idx := k + i
			if idx >= len(live) {
				idx -= len(live)
			}
			src := int(live[idx])
			for u := 0; u < up; u++ {
				link := src*up + u
				if g.held.has(link) || g.failGen[link] == g.relGen[u] {
					continue
				}
				d := g.freeCandidate(c.lists[src], u)
				if d < 0 {
					g.failGen[link] = g.relGen[u]
					continue
				}
				g.cur[link] = d
				g.held.set(link)
				g.rxBusy.set(int(d)*up + u)
				g.darkLeft[link] = int32(g.recfg)
				if g.recfg > 0 {
					// The establishment slot itself is the first
					// reconfiguration slot.
					g.darkLeft[link]--
					reconfig++
				} else {
					dst[base+link] = d
					if g.consume(src*n+int(d), src, d) {
						prune = true
					}
				}
			}
		}
	}
	copy(g.prev, demand)
	return reconfig
}

// consume takes one requested cell of pair r = (src, d). The moment
// the pair's demand drains, d leaves src's candidate list, so a probe
// never meets a drained candidate. It reports whether the list emptied.
func (g *NegotiaToR) consume(r, src int, d int32) (emptied bool) {
	g.rem[r]--
	return g.rem[r] == 0 && g.cand.remove(src, d)
}

// freeCandidate returns the first of list whose receive port on uplink
// u is free, or -1.
func (g *NegotiaToR) freeCandidate(list []int32, u int) int32 {
	for _, d := range list {
		if !g.rxBusy.has(int(d)*g.uplinks + u) {
			return d
		}
	}
	return -1
}

// Reset implements Scheduler: drop held circuits and in-flight requests.
func (g *NegotiaToR) Reset() {
	g.havePrev = false
	for i := range g.cur {
		g.cur[i] = -1
		g.darkLeft[i] = 0
	}
	clear(g.held)
	clear(g.rxBusy)
}
