package sched

// The pre-rewrite planners, kept verbatim (renamed) as the executable
// specification the live planners are checked against: every
// (slot, source, uplink) entry visited per plan, demand copied n² per
// plan, and candidates re-probed after their demand is served. The
// differential tests below and FuzzPlanContentionFree require the
// live planners to reproduce these plans entry for entry.

import (
	"fmt"
	"slices"
	"testing"

	"sirius/internal/rng"
)

// refRotorRR is a RotorNet-style round-robin scheduler: each uplink is a
// rotor switch cycling blindly through the cyclic-shift decomposition
// of the directed complete graph K_n (the n-1 matchings i → i+m mod n,
// m = 1..n-1). A switch holds one matching for a whole epoch and
// advances to the next at the boundary, paying Reconfig dark slots on
// every link while the rotor swings — the duty-cycle cost the Sirius
// paper charges rotor fabrics. Switches are staggered so the fabric's
// uplinks sample different shifts in any one epoch; over n-1 epochs
// every uplink visits every shift, so coverage is uniform without ever
// looking at demand (demand is ignored entirely, like RotorNet).
type refRotorRR struct {
	nodes   int
	uplinks int
	slots   int // hold time per matching, in slots (incl. reconfig)
	recfg   int // leading dark slots per epoch
}

// newRefRotorRR builds a rotor scheduler holding each matching for
// slotsPerEpoch slots, the first reconfigSlots of which are dark.
func newRefRotorRR(nodes, uplinks, slotsPerEpoch, reconfigSlots int) (*refRotorRR, error) {
	switch {
	case nodes < 2:
		return nil, fmt.Errorf("sched: need >= 2 nodes")
	case uplinks < 1:
		return nil, fmt.Errorf("sched: need >= 1 uplink")
	case slotsPerEpoch < 1:
		return nil, fmt.Errorf("sched: need >= 1 slot per epoch")
	case reconfigSlots < 0 || reconfigSlots >= slotsPerEpoch:
		return nil, fmt.Errorf("sched: reconfig slots (%d) must be in [0, slots per epoch)", reconfigSlots)
	}
	return &refRotorRR{nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch, recfg: reconfigSlots}, nil
}

// Nodes implements Scheduler.
func (r *refRotorRR) Nodes() int { return r.nodes }

// Uplinks implements Scheduler.
func (r *refRotorRR) Uplinks() int { return r.uplinks }

// SlotsPerEpoch implements Scheduler.
func (r *refRotorRR) SlotsPerEpoch() int { return r.slots }

// ConnectionsPerEpoch implements Scheduler: a pair connected this epoch
// owns the uplink for the whole hold, so the nominal pair bandwidth is
// the serving slots of one hold.
func (r *refRotorRR) ConnectionsPerEpoch() int { return r.slots - r.recfg }

// shift returns the cyclic shift (1..n-1) uplink u holds during epoch t.
// Switch start points are staggered by (n-1)/uplinks so concurrent
// uplinks sample spread-out shifts.
func (r *refRotorRR) shift(epoch int64, u int) int {
	period := int64(r.nodes - 1)
	stride := int64((r.nodes - 1) / r.uplinks)
	if stride == 0 {
		stride = 1
	}
	return 1 + int((epoch+int64(u)*stride)%period)
}

// Plan implements Scheduler: matching i → i+shift on every uplink, all
// slots, with the leading reconfig slots dark.
func (r *refRotorRR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := r.nodes, r.uplinks
	for u := 0; u < up; u++ {
		m := r.shift(epoch, u)
		for slot := 0; slot < r.slots; slot++ {
			base := slot * n * up
			if slot < r.recfg {
				for node := 0; node < n; node++ {
					dst[base+node*up+u] = -1
				}
				continue
			}
			for node := 0; node < n; node++ {
				dst[base+node*up+u] = int32((node + m) % n)
			}
		}
	}
	return r.recfg * n * up
}

// Reset implements Scheduler: the rotor position is a pure function of
// the epoch index, so there is no state to clear.
func (r *refRotorRR) Reset() {}

// refCandSet holds per-source candidate destination lists for one planning
// epoch: each source's destinations with positive remaining demand,
// ordered by demand descending (ties broken by lower index, so the
// order — and every plan built from it — is deterministic). Lists are
// capped at a fixed depth: demand-aware solvers probe a bounded number
// of candidates rather than scanning all n destinations per slot.
type refCandSet struct {
	lists [][]int32 // per src, dst indices, demand-descending
	buf   []int32   // backing storage, reused across epochs
}

// build fills the candidate lists from demand (n×n row-major), keeping
// at most depth entries per source. Selection is a capped insertion
// sort: O(n·depth) per source worst case, cheap on sparse rows.
func (c *refCandSet) build(n, depth int, demand []int32) {
	if cap(c.buf) < n*depth {
		c.buf = make([]int32, n*depth)
	}
	if c.lists == nil {
		c.lists = make([][]int32, n)
	}
	for src := 0; src < n; src++ {
		list := c.buf[src*depth : src*depth : (src+1)*depth]
		row := demand[src*n : (src+1)*n]
		for dst, d := range row {
			if d <= 0 {
				continue
			}
			// Insert dst keeping the list demand-descending, dropping
			// the tail beyond depth.
			i := len(list)
			if i < depth {
				list = list[:i+1]
			} else if row[list[i-1]] >= d {
				continue
			} else {
				i--
			}
			for i > 0 && row[list[i-1]] < d {
				list[i] = list[i-1]
				i--
			}
			list[i] = int32(dst)
		}
		c.lists[src] = list
	}
}

// refPULSE is a per-epoch demand-aware scheduler modeled on refPULSE's
// distributed wavelength assignment: at every epoch boundary it reads
// the sampled VOQ demand matrix and builds one matching per
// (slot, uplink) plane with a bounded-iteration greedy heuristic —
// sources probe their top-demand candidates in a rotating order and
// claim the first free receiver, so each plane is maximal with respect
// to the probed candidates without any global optimization. Links with
// no demand stay dark (demand-aware fabrics light only requested
// wavelengths). The leading Reconfig slots of each epoch are dark,
// charging the scheduling/tuning latency of acting on fresh demand.
type refPULSE struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int // candidate probe bound per (src, slot, uplink)

	rem   []int32 // remaining unserved demand, consumed as slots are planned
	cand  refCandSet
	owner []int32 // (dst*uplinks+u) → claiming src for the current slot
	stamp []int32 // claim validity stamp, avoids clearing owner per slot
	cur   int32   // current stamp
}

// newRefPULSE builds a refPULSE scheduler. probeBound caps how many of its
// top-demand destinations a source probes per (slot, uplink); 0 means
// the default of 2×uplinks.
func newRefPULSE(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*refPULSE, error) {
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
	return &refPULSE{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		rem:   make([]int32, nodes*nodes),
		owner: make([]int32, nodes*uplinks),
		stamp: make([]int32, nodes*uplinks),
	}, nil
}

// Nodes implements Scheduler.
func (p *refPULSE) Nodes() int { return p.nodes }

// Uplinks implements Scheduler.
func (p *refPULSE) Uplinks() int { return p.uplinks }

// SlotsPerEpoch implements Scheduler.
func (p *refPULSE) SlotsPerEpoch() int { return p.slots }

// ConnectionsPerEpoch implements Scheduler: demand-aware assignment can
// in principle give a hot pair every serving slot of the epoch.
func (p *refPULSE) ConnectionsPerEpoch() int { return p.slots - p.recfg }

// Plan implements Scheduler.
func (p *refPULSE) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := p.nodes, p.uplinks
	copy(p.rem, demand)
	p.cand.build(n, p.probes, demand)
	reconfig := 0
	for slot := 0; slot < p.slots; slot++ {
		base := slot * n * up
		dark := slot < p.recfg
		for u := 0; u < up; u++ {
			p.cur++
			// Rotate the source start so no node is systematically
			// first in line; the offset is a pure function of
			// (epoch, slot, uplink) for replayability.
			start := int((epoch*int64(p.slots)+int64(slot))+int64(u)*7) % n
			if start < 0 {
				start += n
			}
			for i := 0; i < n; i++ {
				src := start + i
				if src >= n {
					src -= n
				}
				e := base + src*up + u
				dst[e] = -1
				for _, d := range p.cand.lists[src] {
					if p.rem[src*n+int(d)] <= 0 {
						continue
					}
					port := int(d)*up + u
					if p.stamp[port] == p.cur {
						continue
					}
					p.stamp[port] = p.cur
					p.owner[port] = int32(src)
					if dark {
						// The assignment exists but the plane is
						// still reconfiguring: a lost serving
						// opportunity, charged as overhead. Demand
						// stays unserved.
						reconfig++
					} else {
						dst[e] = d
						p.rem[src*n+int(d)]--
					}
					break
				}
			}
		}
	}
	return reconfig
}

// Reset implements Scheduler: all per-epoch scratch is rebuilt by every
// Plan call, so only the claim stamp needs clearing.
func (p *refPULSE) Reset() {
	p.cur = 0
	for i := range p.stamp {
		p.stamp[i] = 0
	}
}

// refNegotiaToR models on-demand request/notify reconfiguration: sources
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
type refNegotiaToR struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int

	prev     []int32 // demand sampled one epoch ago (requests in flight)
	havePrev bool
	rem      []int32 // unserved requested demand, consumed as slots are planned
	cand     refCandSet
	cur      []int32 // (src*uplinks+u) → held dst, -1 if idle
	darkLeft []int32 // (src*uplinks+u) → reconfig slots still owed
	rxBusy   []int32 // (dst*uplinks+u) → holding src, -1 if free
}

// newRefNegotiaToR builds a refNegotiaToR scheduler. probeBound caps the
// candidate probes per circuit establishment; 0 means 2×uplinks.
func newRefNegotiaToR(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*refNegotiaToR, error) {
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
	ng := &refNegotiaToR{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		prev:     make([]int32, nodes*nodes),
		rem:      make([]int32, nodes*nodes),
		cur:      make([]int32, nodes*uplinks),
		darkLeft: make([]int32, nodes*uplinks),
		rxBusy:   make([]int32, nodes*uplinks),
	}
	ng.Reset()
	return ng, nil
}

// Nodes implements Scheduler.
func (g *refNegotiaToR) Nodes() int { return g.nodes }

// Uplinks implements Scheduler.
func (g *refNegotiaToR) Uplinks() int { return g.uplinks }

// SlotsPerEpoch implements Scheduler.
func (g *refNegotiaToR) SlotsPerEpoch() int { return g.slots }

// ConnectionsPerEpoch implements Scheduler: a held circuit can serve a
// pair every slot of the epoch.
func (g *refNegotiaToR) ConnectionsPerEpoch() int { return g.slots }

// Plan implements Scheduler.
func (g *refNegotiaToR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := g.nodes, g.uplinks
	reconfig := 0
	if !g.havePrev {
		// Requests are still in flight: nothing is granted yet.
		for i := range dst[:g.slots*n*up] {
			dst[i] = -1
		}
		copy(g.prev, demand)
		g.havePrev = true
		return 0
	}
	copy(g.rem, g.prev)
	g.cand.build(n, g.probes, g.prev)
	for slot := 0; slot < g.slots; slot++ {
		base := slot * n * up
		// Serve or release held circuits first, then establish new
		// ones — a fixed order shared by every replay.
		for src := 0; src < n; src++ {
			for u := 0; u < up; u++ {
				link := src*up + u
				e := base + link
				dst[e] = -1
				d := g.cur[link]
				if d < 0 {
					continue
				}
				if g.rem[src*n+int(d)] <= 0 {
					// Requested demand drained: release the circuit.
					g.rxBusy[int(d)*up+u] = -1
					g.cur[link] = -1
					g.darkLeft[link] = 0
					continue
				}
				if g.darkLeft[link] > 0 {
					g.darkLeft[link]--
					reconfig++
					continue
				}
				dst[e] = d
				g.rem[src*n+int(d)]--
			}
		}
		// Establish new circuits on idle links, rotating the source
		// start for fairness (pure function of epoch and slot).
		start := int((epoch*int64(g.slots) + int64(slot)) % int64(n))
		if start < 0 {
			start += n
		}
		for i := 0; i < n; i++ {
			src := start + i
			if src >= n {
				src -= n
			}
			for u := 0; u < up; u++ {
				link := src*up + u
				if g.cur[link] >= 0 {
					continue
				}
				for _, d := range g.cand.lists[src] {
					if g.rem[src*n+int(d)] <= 0 || g.rxBusy[int(d)*up+u] >= 0 {
						continue
					}
					g.cur[link] = d
					g.rxBusy[int(d)*up+u] = int32(src)
					g.darkLeft[link] = int32(g.recfg)
					if g.recfg > 0 {
						// The establishment slot itself is the first
						// reconfiguration slot.
						g.darkLeft[link]--
						reconfig++
					} else {
						dst[base+link] = d
						g.rem[src*n+int(d)]--
					}
					break
				}
			}
		}
	}
	copy(g.prev, demand)
	return reconfig
}

// Reset implements Scheduler: drop held circuits and in-flight requests.
func (g *refNegotiaToR) Reset() {
	g.havePrev = false
	for i := range g.cur {
		g.cur[i] = -1
		g.rxBusy[i] = -1
		g.darkLeft[i] = 0
	}
}

// planPair runs a live planner and its reference side by side.
type planPair struct {
	name      string
	live, ref Scheduler
}

func newPlanPairs(tb testing.TB, n, up, slots, recfg int) []planPair {
	tb.Helper()
	must := func(s Scheduler, err error) Scheduler {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return s
	}
	return []planPair{
		{"rotorrr", must(NewRotorRR(n, up, slots, recfg)), must(newRefRotorRR(n, up, slots, recfg))},
		{"pulse", must(NewPULSE(n, up, slots, recfg, 0)), must(newRefPULSE(n, up, slots, recfg, 0))},
		{"negotiator", must(NewNegotiaToR(n, up, slots, recfg, 0)), must(newRefNegotiaToR(n, up, slots, recfg, 0))},
	}
}

// fillJunk overwrites dst with arbitrary values, in range and out of
// range, so a plan that leaves any entry undefined shows up as a
// mismatch.
func fillJunk(dst []int32, r *rng.RNG, n int) {
	for i := range dst {
		dst[i] = int32(r.Intn(n+8)) - 4
	}
}

// comparePlans plans one epoch with both planners of pp, each into a
// junk-filled table, and fails on any difference in dst or reconfig.
func comparePlans(tb testing.TB, pp planPair, epoch int64, demand, dst, want []int32, r *rng.RNG) {
	tb.Helper()
	n := pp.ref.Nodes()
	fillJunk(want, r, n)
	fillJunk(dst, r, n)
	wantRC := pp.ref.Plan(epoch, demand, want)
	gotRC := pp.live.Plan(epoch, demand, dst)
	if gotRC != wantRC {
		tb.Fatalf("%s epoch %d: reconfig %d, reference %d", pp.name, epoch, gotRC, wantRC)
	}
	for i := range want {
		if dst[i] != want[i] {
			up := pp.ref.Uplinks()
			tb.Fatalf("%s epoch %d: slot %d node %d uplink %d: dst %d, reference %d",
				pp.name, epoch, i/(n*up), i/up%n, i%up, dst[i], want[i])
		}
	}
}

// addArrivals adds one epoch of fresh demand in the given shape:
// "sparse" (about 0.4% of pairs), "dense" (every pair, 0..7 cells) or
// "hotspot" (half the sources flood one destination over a sparse
// background). Self pairs stay zero, as in the core's snapshot.
func addArrivals(shape string, n, hot int, demand []int32, r *rng.RNG) {
	sparse := func() {
		for k := 2 + n*n/256; k > 0; k-- {
			src, dst := r.Intn(n), r.Intn(n)
			if src != dst {
				demand[src*n+dst] += int32(1 + r.Intn(32))
			}
		}
	}
	switch shape {
	case "sparse":
		sparse()
	case "dense":
		for i := range demand {
			if i/n != i%n {
				demand[i] += int32(r.Intn(8))
			}
		}
	case "hotspot":
		sparse()
		for src := 0; src < n; src++ {
			if src != hot && r.Intn(2) == 0 {
				demand[src*n+hot] += int32(1 + r.Intn(32))
			}
		}
	}
}

// TestPlannersMatchReference is the differential proof of the
// live-demand rewrite: over evolving demand (the cells each plan serves
// drain, fresh arrivals add, an idle spell empties the fabric), every
// live planner reproduces the pre-rewrite reference's dst and reconfig
// count exactly, epoch after epoch, and again after Reset.
func TestPlannersMatchReference(t *testing.T) {
	const epochs = 40
	for _, g := range []struct{ n, up, slots, recfg int }{
		{16, 4, 4, 1},    // golden fixtures
		{256, 12, 32, 1}, // the sched_families benchmark point
		{64, 6, 16, 2},
		{7, 2, 5, 3},  // node count not a multiple of 64
		{24, 3, 6, 0}, // no reconfiguration slots
	} {
		for _, shape := range []string{"sparse", "dense", "hotspot"} {
			name := fmt.Sprintf("n%d_up%d_s%d_r%d/%s", g.n, g.up, g.slots, g.recfg, shape)
			t.Run(name, func(t *testing.T) {
				r := rng.New(uint64(g.n*1000 + g.slots))
				hot := r.Intn(g.n)
				dst := make([]int32, g.slots*g.n*g.up)
				want := make([]int32, len(dst))
				for _, pp := range newPlanPairs(t, g.n, g.up, g.slots, g.recfg) {
					// Closed loop: the cells a plan serves leave the
					// backlog, so demand persists and shifts the way a
					// queue does under this family.
					var seq [][]int32
					demand := make([]int32, g.n*g.n)
					for e := 0; e < epochs; e++ {
						if e >= epochs/2 && e < epochs/2+3 {
							clear(demand) // idle spell: every circuit drains
						} else {
							addArrivals(shape, g.n, hot, demand, r)
						}
						seq = append(seq, slices.Clone(demand))
						comparePlans(t, pp, int64(e), demand, dst, want, r)
						for i, s := range servedPerPair(g.n, g.up, want) {
							demand[i] = max(0, demand[i]-s)
						}
					}
					pp.live.Reset()
					pp.ref.Reset()
					for e, d := range seq[:8] {
						comparePlans(t, pp, int64(e), d, dst, want, r)
					}
				}
			})
		}
	}
}
