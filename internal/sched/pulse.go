package sched

import (
	"fmt"
	"slices"
)

// candSet holds per-source candidate destination lists for one planning
// epoch: each source's destinations with positive remaining demand,
// ordered by demand descending (ties broken by lower index, so the
// order — and every plan built from it — is deterministic). Lists are
// capped at a fixed depth: demand-aware solvers probe a bounded number
// of candidates rather than scanning all n destinations per slot.
//
// Within one Plan a pair's remaining demand only falls, so a
// candidate whose demand is exhausted can never be chosen again: the
// planners drop it from its list (order preserved) instead of
// re-probing it, and visit only the sources in live.
type candSet struct {
	lists [][]int32 // per src, dst indices, demand-descending
	rem   []int32   // per src*depth+j: remaining demand of lists[src][j] (PULSE)
	live  []int32   // ascending sources whose list is non-empty
	depth int
	buf   []int32 // backing storage, reused across epochs
}

// build fills the candidate lists from demand (n×n row-major), keeping
// at most depth entries per source. Selection is a capped insertion
// sort: O(n·depth) per source worst case, cheap on sparse rows.
func (c *candSet) build(n, depth int, demand []int32) {
	if cap(c.buf) < n*depth {
		c.buf = make([]int32, n*depth)
		c.rem = make([]int32, n*depth)
	}
	if c.lists == nil {
		c.lists = make([][]int32, n)
		c.live = make([]int32, 0, n)
	}
	c.depth = depth
	c.live = c.live[:0]
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
		if len(list) > 0 {
			c.live = append(c.live, int32(src))
			rem := c.rem[src*depth:]
			for j, d := range list {
				rem[j] = row[d]
			}
		}
	}
}

// serve consumes one cell of src's j-th candidate, dropping the
// candidate once its demand is exhausted. It reports whether src's
// list became empty.
func (c *candSet) serve(src, j int) (emptied bool) {
	rem := c.rem[src*c.depth : src*c.depth+len(c.lists[src])]
	rem[j]--
	if rem[j] > 0 {
		return false
	}
	copy(rem[j:], rem[j+1:])
	return c.drop(src, j)
}

// drop removes src's j-th candidate, keeping the rest in order, and
// reports whether src's list became empty. It leaves rem alone: only
// serve's callers read it.
func (c *candSet) drop(src, j int) (emptied bool) {
	list := c.lists[src]
	copy(list[j:], list[j+1:])
	c.lists[src] = list[:len(list)-1]
	return len(list) == 1
}

// remove drops d from src's list if it is there, and reports whether
// the list became empty.
func (c *candSet) remove(src int, d int32) (emptied bool) {
	j := slices.Index(c.lists[src], d)
	return j >= 0 && c.drop(src, j)
}

// pruneLive removes the sources whose lists have emptied from live,
// keeping it ascending.
func (c *candSet) pruneLive() {
	live := c.live[:0]
	for _, src := range c.live {
		if len(c.lists[src]) > 0 {
			live = append(live, src)
		}
	}
	c.live = live
}

// liveFrom returns the index in live of the first source >= start, or
// len(live) when there is none: visiting live[k:] then live[:k] walks
// the live sources in the rotated order start, start+1, ..., start-1.
func (c *candSet) liveFrom(start int) int {
	k, _ := slices.BinarySearch(c.live, int32(start))
	return k
}

// PULSE is a per-epoch demand-aware scheduler modeled on PULSE's
// distributed wavelength assignment: at every epoch boundary it reads
// the sampled VOQ demand matrix and builds one matching per
// (slot, uplink) plane with a bounded-iteration greedy heuristic —
// sources probe their top-demand candidates in a rotating order and
// claim the first free receiver, so each plane is maximal with respect
// to the probed candidates without any global optimization. Links with
// no demand stay dark (demand-aware fabrics light only requested
// wavelengths). The leading Reconfig slots of each epoch are dark,
// charging the scheduling/tuning latency of acting on fresh demand.
type PULSE struct {
	nodes   int
	uplinks int
	slots   int
	recfg   int
	probes  int // candidate probe bound per (src, slot, uplink)

	cand  candSet
	stamp []int32 // (dst*uplinks+u) → plane stamp of its last claim
	cur   int32   // current (slot, uplink) plane's stamp
}

// NewPULSE builds a PULSE scheduler. probeBound caps how many of its
// top-demand destinations a source probes per (slot, uplink); 0 means
// the default of 2×uplinks.
func NewPULSE(nodes, uplinks, slotsPerEpoch, reconfigSlots, probeBound int) (*PULSE, error) {
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
	return &PULSE{
		nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch,
		recfg: reconfigSlots, probes: probeBound,
		stamp: make([]int32, nodes*uplinks),
	}, nil
}

// Nodes implements Scheduler.
func (p *PULSE) Nodes() int { return p.nodes }

// Uplinks implements Scheduler.
func (p *PULSE) Uplinks() int { return p.uplinks }

// SlotsPerEpoch implements Scheduler.
func (p *PULSE) SlotsPerEpoch() int { return p.slots }

// ConnectionsPerEpoch implements Scheduler: demand-aware assignment can
// in principle give a hot pair every serving slot of the epoch.
func (p *PULSE) ConnectionsPerEpoch() int { return p.slots - p.recfg }

// Plan implements Scheduler. Only sources with live candidates are
// visited, in the rotated order; every other entry stays dark.
func (p *PULSE) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := p.nodes, p.uplinks
	fillDark(dst[:p.slots*n*up])
	c := &p.cand
	c.build(n, p.probes, demand)
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
			live, k := c.live, c.liveFrom(start)
			emptied := false
			for i := range live {
				idx := k + i
				if idx >= len(live) {
					idx -= len(live)
				}
				src := int(live[idx])
				for j, d := range c.lists[src] {
					port := int(d)*up + u
					if p.stamp[port] == p.cur {
						continue
					}
					p.stamp[port] = p.cur
					if dark {
						// The assignment exists but the plane is
						// still reconfiguring: a lost serving
						// opportunity, charged as overhead. Demand
						// stays unserved.
						reconfig++
					} else {
						dst[base+src*up+u] = d
						if c.serve(src, j) {
							emptied = true
						}
					}
					break
				}
			}
			if emptied {
				c.pruneLive()
			}
		}
	}
	return reconfig
}

// Reset implements Scheduler: all per-epoch scratch is rebuilt by every
// Plan call, so only the claim stamp needs clearing.
func (p *PULSE) Reset() {
	p.cur = 0
	for i := range p.stamp {
		p.stamp[i] = 0
	}
}
