// Package congestion implements Sirius' request/grant congestion-control
// protocol (§4.3), a distributed relative of DRRM.
//
// Queuing in Sirius happens only when two or more sources route cells for
// the same destination D through the same intermediate I in one epoch: I
// can forward only ConnectionsPerEpoch cells to D per epoch, so the rest
// wait. The protocol bounds that queue at Q cells: a source may send a
// cell for D via I only after I grants it, and I grants only while its
// queue for D plus its outstanding grants for D stay below Q.
//
// Control messages ride piggybacked on the cells of the cyclic schedule,
// so requests issued in epoch e are acted on by the intermediate in epoch
// e+1 and the grant reaches the source in time for transmission in epoch
// e+2 — the "initial epoch-length worth of latency" the paper accepts in
// exchange for bounded queues and a lossless core.
package congestion

import (
	"fmt"
	"math"

	"sirius/internal/rng"
)

// Grant authorizes Src to forward one cell destined Dst in the coming
// epoch, via the intermediate whose grant list holds it.
type Grant struct {
	Src, Dst int32
}

// pairOcc is one (intermediate, destination) pair's occupancy. Both
// counters sit in one record so the grant-issue bound check and
// OnCellArrived touch one cache line.
type pairOcc struct {
	queued    int16 // cells held at the intermediate for dst
	grantsOut int16 // outstanding grants (granted, not yet arrived)
}

// Controller runs the protocol for every node of the fabric. It is the
// control plane only: the data plane (cell movement) belongs to the
// caller, which reports arrivals and departures so the controller can
// track queue occupancy.
//
// Apart from the pointer-free n² occupancy table (4 B per pair), its
// state is proportional to one epoch's requests and grants.
type Controller struct {
	n       int
	q       int
	perDest int // grants issuable per destination per epoch (= schedule k)

	r *rng.RNG

	occ []pairOcc // [via*n+dst]

	// Requests in flight, arriving at intermediates during this epoch and
	// processed at the next Tick: per intermediate, a log of dst<<32|src
	// entries in issue order.
	reqs [][]uint64

	// Grants in flight, delivered to sources at the next Tick, per
	// intermediate. Two buffers alternate: the one handed out by the
	// previous Tick is truncated (capacity kept) and becomes the
	// accumulation target, so steady-state Ticks allocate nothing while
	// honoring the "returned slices are valid until the next Tick"
	// contract.
	granted    [][]Grant
	grantedOld [][]Grant

	failed []bool // nodes excluded as intermediates (nil = none)

	noDirect bool // ablation: never route via the destination itself
	instant  bool // ablation: zero-latency oracle control plane

	// Scratch reused across Ticks: per intermediate, the stamp of the
	// source currently issuing requests (high 48 bits) packed with the
	// number of requests that source already sent to the intermediate
	// (low 16 bits). One word instead of two halves the memory traffic
	// of the rejection-sampling loop, the simulator's hottest path.
	used  []uint64
	stamp uint64

	// processRequests' grouping scratch: per-destination counts (zero
	// between intermediates), destinations in first-seen order, and the
	// grouped sources.
	cnt   []int32
	order []int32
	srcs  []int32
}

// New returns a controller for n nodes with queue bound q. perDest is the
// number of pair-connections per epoch the schedule provides (grants
// issuable per destination per epoch); the common case is 1.
func New(n, q, perDest int, seed uint64) (*Controller, error) {
	if n < 2 {
		return nil, fmt.Errorf("congestion: need >= 2 nodes")
	}
	if q < 2 {
		// §4.3: the minimum is 2 — within one epoch a node may receive a
		// new cell for D before it had a chance to transmit the previous.
		return nil, fmt.Errorf("congestion: queue bound must be >= 2, have %d", q)
	}
	if q > math.MaxInt16 {
		// The pair counters are int16: a larger bound would let them wrap.
		return nil, fmt.Errorf("congestion: queue bound must be <= %d, have %d", math.MaxInt16, q)
	}
	if perDest < 1 {
		return nil, fmt.Errorf("congestion: perDest must be >= 1")
	}
	return &Controller{
		n:          n,
		q:          q,
		perDest:    perDest,
		r:          rng.New(seed),
		occ:        make([]pairOcc, n*n),
		reqs:       make([][]uint64, n),
		granted:    make([][]Grant, n),
		grantedOld: make([][]Grant, n),
		used:       make([]uint64, n),
		cnt:        make([]int32, n),
	}, nil
}

// DisallowDirect is an ablation switch: the destination itself is no
// longer a valid intermediate, so every cell detours (pure VLB).
func (c *Controller) DisallowDirect() { c.noDirect = true }

// InstantControl is an ablation switch: requests and grants propagate
// instantaneously instead of riding piggybacked for an epoch each — an
// oracle control plane that prices the piggybacking latency.
func (c *Controller) InstantControl() { c.instant = true }

// ExcludeVias marks nodes that must not be chosen as intermediates
// (failed nodes whose schedule slots are dark). At least two live nodes
// must remain.
func (c *Controller) ExcludeVias(failed []bool) error {
	if len(failed) != c.n {
		return fmt.Errorf("congestion: failed mask has %d entries for %d nodes", len(failed), c.n)
	}
	live := 0
	for _, f := range failed {
		if !f {
			live++
		}
	}
	if live < 2 {
		return fmt.Errorf("congestion: fewer than 2 live nodes")
	}
	c.failed = failed
	return nil
}

// Tick advances one epoch boundary:
//
//  1. grants issued last epoch are delivered to their sources (returned);
//  2. requests issued last epoch are processed by intermediates, issuing
//     new grants (in flight until the next Tick);
//  3. sources issue new requests from their current LOCAL demand.
//
// demand(i) must return the destinations of the cells in node i's LOCAL
// queue in FIFO order; it may truncate to n-1 entries (no more requests
// than intermediates can be issued). The result is indexed by
// intermediate; each source finds its grants in ascending intermediate
// order, and within one intermediate in the order the destinations were
// first requested there. The returned slices are valid until the next
// Tick.
func (c *Controller) Tick(demand func(node int) []int) [][]Grant {
	if c.instant {
		// Oracle ablation: requests issue, process and deliver within
		// the same epoch boundary.
		c.issueRequests(demand)
		c.processRequests()
		return c.swapGranted()
	}
	// 1. Deliver grants issued last epoch.
	delivered := c.swapGranted()
	// 2. Intermediates process last epoch's requests.
	c.processRequests()
	// 3. Sources issue this epoch's requests.
	c.issueRequests(demand)
	return delivered
}

// swapGranted returns the accumulated grant buffer and installs the other
// buffer — truncated in place, capacity preserved — as the new
// accumulation target. The returned per-intermediate slices stay untouched
// until the Tick after next, satisfying the documented lifetime.
func (c *Controller) swapGranted() [][]Grant {
	delivered := c.granted
	next := c.grantedOld
	for i := range next {
		next[i] = next[i][:0]
	}
	c.grantedOld = delivered
	c.granted = next
	return delivered
}

// processRequests runs the intermediates' side: one grant per destination
// per pair-connection (perDest), space permitting, against the requests
// logged in reqs. Each intermediate's log is grouped by destination with
// one counting pass: destinations keep the order they were first
// requested in, and sources keep issue order within a destination, so
// every random pick sees the same candidate list, in the same order, as a
// per-destination list built request by request would.
func (c *Controller) processRequests() {
	r := c.r
	cnt := c.cnt
	for via, reqs := range c.reqs {
		if len(reqs) == 0 {
			continue
		}
		order := c.order[:0]
		for _, e := range reqs {
			d := int32(e >> 32)
			if cnt[d] == 0 {
				order = append(order, d)
			}
			cnt[d]++
		}
		// Counts become start offsets, then each source is placed at its
		// destination's cursor; afterwards cnt[d] is the end of d's run.
		off := int32(0)
		for _, d := range order {
			off, cnt[d] = off+cnt[d], off
		}
		if cap(c.srcs) < len(reqs) {
			c.srcs = make([]int32, len(reqs))
		}
		srcs := c.srcs[:len(reqs)]
		for _, e := range reqs {
			d := int32(e >> 32)
			srcs[cnt[d]] = int32(uint32(e))
			cnt[d]++
		}
		gs := c.granted[via]
		base := via * c.n
		start := int32(0)
		for _, dst := range order {
			end := cnt[dst]
			cnt[dst] = 0
			cands := srcs[start:end]
			start = end
			o := &c.occ[base+int(dst)]
			for g := 0; g < c.perDest; g++ {
				if len(cands) == 0 {
					break
				}
				if int(o.queued)+int(o.grantsOut) >= c.q {
					break
				}
				pick := r.Intn(len(cands))
				src := cands[pick]
				cands[pick] = cands[len(cands)-1]
				cands = cands[:len(cands)-1]
				o.grantsOut++
				gs = append(gs, Grant{Src: src, Dst: dst})
			}
		}
		c.granted[via] = gs
		c.reqs[via] = reqs[:0]
		c.order = order[:0]
	}
}

// issueRequests runs the sources' side: one request per queued cell, each
// to a uniformly chosen intermediate that has not exhausted its per-epoch
// request budget; stop when all intermediates have. The budget is perDest
// requests per intermediate per epoch — the paper's "one request per
// intermediate per epoch" generalized to schedules that connect each pair
// perDest times per epoch, so the request plane matches the data plane's
// capacity.
func (c *Controller) issueRequests(demand func(node int) []int) {
	liveVias := c.n
	if c.failed != nil {
		liveVias = 0
		for _, f := range c.failed {
			if !f {
				liveVias++
			}
		}
	}
	for src := 0; src < c.n; src++ {
		dsts := demand(src)
		if len(dsts) == 0 {
			continue
		}
		c.stamp++
		used := 0
		budget := c.perDest * (liveVias - 1)
		for _, dst := range dsts {
			if used == budget {
				break // all intermediates exhausted
			}
			if dst < 0 || dst >= c.n || dst == src {
				panic(fmt.Sprintf("congestion: bad destination %d from node %d", dst, src))
			}
			// Uniform choice among intermediates with remaining budget
			// (any node except the source; the destination itself is
			// allowed — that is the direct path — unless the no-direct
			// ablation is on).
			via := c.pickAvailable(src, dst)
			if via < 0 {
				continue // no eligible intermediate left for this cell
			}
			used++
			c.reqs[via] = append(c.reqs[via], uint64(dst)<<32|uint64(src))
		}
	}
}

// pickAvailable returns a uniformly random eligible node with request
// budget left this epoch, by rejection sampling with a linear-scan
// fallback. It returns -1 when no eligible intermediate remains (possible
// under the no-direct ablation or with failed nodes).
// The eligibility test is written out inline (twice) rather than behind a
// closure: this is the hottest call site in the whole simulator and the
// closure-call overhead was measurable (~10% of total CPU). The RNG call
// sequence is exactly that of the closure-based version, so fixed-seed
// runs are unchanged.
func (c *Controller) pickAvailable(src, dst int) int {
	n := c.n
	r := c.r
	failed := c.failed
	noDirect := c.noDirect
	used := c.used
	stampBits := c.stamp << 16
	budget := uint64(c.perDest)
	for try := 0; try < 4*n; try++ {
		v := r.Intn(n)
		if v == src || (failed != nil && failed[v]) || (noDirect && v == dst) {
			continue
		}
		u := used[v]
		if u&^uint64(0xffff) != stampBits {
			u = stampBits // stale stamp: reset this source's count to zero
		}
		if u&0xffff < budget {
			used[v] = u + 1
			return v
		}
	}
	// Dense exhaustion: scan from a random offset to stay unbiased.
	off := r.Intn(n)
	for j := 0; j < n; j++ {
		v := off + j
		if v >= n {
			v -= n
		}
		if v == src || (failed != nil && failed[v]) || (noDirect && v == dst) {
			continue
		}
		u := used[v]
		if u&^uint64(0xffff) != stampBits {
			u = stampBits
		}
		if u&0xffff < budget {
			used[v] = u + 1
			return v
		}
	}
	return -1
}

// OnCellArrived records the arrival at via of a granted cell destined dst.
// A cell arriving at its final destination (via == dst) is consumed, not
// queued. It panics if the queue bound would be violated — the protocol's
// central invariant.
func (c *Controller) OnCellArrived(via, dst int) {
	o := &c.occ[via*c.n+dst]
	if o.grantsOut <= 0 {
		panic(fmt.Sprintf("congestion: cell arrived at %d for %d without outstanding grant", via, dst))
	}
	o.grantsOut--
	if via == dst {
		return
	}
	o.queued++
	if int(o.queued) > c.q {
		panic(fmt.Sprintf("congestion: queue bound violated at %d for %d: %d > %d",
			via, dst, o.queued, c.q))
	}
}

// OnCellForwarded records that via transmitted one queued cell to dst.
func (c *Controller) OnCellForwarded(via, dst int) {
	o := &c.occ[via*c.n+dst]
	if o.queued <= 0 {
		panic(fmt.Sprintf("congestion: forward from empty queue at %d for %d", via, dst))
	}
	o.queued--
}

// OnGrantUnused releases a grant the source could not use (the cell it was
// for left via another grant). In the real system this notification rides
// piggybacked like everything else; the model applies it immediately,
// which only makes the intermediate marginally more conservative.
func (c *Controller) OnGrantUnused(via, dst int) {
	o := &c.occ[via*c.n+dst]
	if o.grantsOut <= 0 {
		panic(fmt.Sprintf("congestion: releasing non-existent grant at %d for %d", via, dst))
	}
	o.grantsOut--
}
