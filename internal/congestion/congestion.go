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

	"sirius/internal/rng"
)

// Grant authorizes Src to forward one cell destined Dst via intermediate
// Via in the coming epoch.
type Grant struct {
	Src, Via, Dst int
}

// Controller runs the protocol for every node of the fabric. It is the
// control plane only: the data plane (cell movement) belongs to the
// caller, which reports arrivals and departures so the controller can
// track queue occupancy.
type Controller struct {
	n       int
	q       int
	perDest int // grants issuable per destination per epoch (= schedule k)

	r *rng.RNG

	// queued and grantsOut are flat n*n arrays indexed via*n+dst: one
	// indirection and one cache line per (via, dst) probe instead of the
	// two a [][]int16 layout costs on the grant-issue hot path.
	queued    []int16 // [via*n+dst] cells held at intermediate for dst
	grantsOut []int16 // [via*n+dst] outstanding (granted, not yet arrived)

	// Requests in flight, arriving at intermediates during this epoch and
	// processed at the next Tick: per intermediate, per destination, the
	// list of requesting sources. Destination insertion order is kept so
	// processing is deterministic (map iteration would not be).
	inflight []reqSet

	// Grants in flight, delivered to sources at the next Tick. Two
	// buffers alternate: the one handed out by the previous Tick is
	// truncated (capacity kept) and becomes the accumulation target, so
	// steady-state Ticks allocate nothing while honoring the "returned
	// slices are valid until the next Tick" contract.
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
}

// reqSet accumulates the requests one intermediate received this epoch,
// indexed by destination, preserving insertion order for determinism.
// Slices are reused across epochs (reset keeps their capacity).
type reqSet struct {
	dsts []int32
	srcs [][]int32 // per destination; sized to the node count
}

func (r *reqSet) add(dst, src int) {
	if len(r.srcs[dst]) == 0 {
		r.dsts = append(r.dsts, int32(dst))
	}
	r.srcs[dst] = append(r.srcs[dst], int32(src))
}

func (r *reqSet) reset() {
	for _, d := range r.dsts {
		r.srcs[d] = r.srcs[d][:0]
	}
	r.dsts = r.dsts[:0]
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
	if perDest < 1 {
		return nil, fmt.Errorf("congestion: perDest must be >= 1")
	}
	c := &Controller{
		n:          n,
		q:          q,
		perDest:    perDest,
		r:          rng.New(seed),
		queued:     make([]int16, n*n),
		grantsOut:  make([]int16, n*n),
		inflight:   make([]reqSet, n),
		granted:    make([][]Grant, n),
		grantedOld: make([][]Grant, n),
		used:       make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		c.inflight[i].srcs = make([][]int32, n)
	}
	return c, nil
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
// than intermediates can be issued). The returned slices are valid until
// the next Tick.
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
// accumulation target. The returned per-source slices stay untouched
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
// accumulated in inflight.
func (c *Controller) processRequests() {
	r := c.r
	for via := 0; via < c.n; via++ {
		reqs := &c.inflight[via]
		if len(reqs.dsts) == 0 {
			continue
		}
		base := via * c.n
		for _, dst32 := range reqs.dsts {
			dst := int(dst32)
			srcs := reqs.srcs[dst]
			for g := 0; g < c.perDest; g++ {
				if len(srcs) == 0 {
					break
				}
				if int(c.queued[base+dst])+int(c.grantsOut[base+dst]) >= c.q {
					break
				}
				pick := r.Intn(len(srcs))
				src := int(srcs[pick])
				srcs[pick] = srcs[len(srcs)-1]
				srcs = srcs[:len(srcs)-1]
				c.grantsOut[base+dst]++
				c.granted[src] = append(c.granted[src], Grant{Src: src, Via: via, Dst: dst})
			}
		}
		reqs.reset()
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
			c.inflight[via].add(dst, src)
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
	if c.grantsOut[via*c.n+dst] <= 0 {
		panic(fmt.Sprintf("congestion: cell arrived at %d for %d without outstanding grant", via, dst))
	}
	c.grantsOut[via*c.n+dst]--
	if via == dst {
		return
	}
	c.queued[via*c.n+dst]++
	if int(c.queued[via*c.n+dst]) > c.q {
		panic(fmt.Sprintf("congestion: queue bound violated at %d for %d: %d > %d",
			via, dst, c.queued[via*c.n+dst], c.q))
	}
}

// OnCellForwarded records that via transmitted one queued cell to dst.
func (c *Controller) OnCellForwarded(via, dst int) {
	if c.queued[via*c.n+dst] <= 0 {
		panic(fmt.Sprintf("congestion: forward from empty queue at %d for %d", via, dst))
	}
	c.queued[via*c.n+dst]--
}

// OnGrantUnused releases a grant the source could not use (the cell it was
// for left via another grant). In the real system this notification rides
// piggybacked like everything else; the model applies it immediately,
// which only makes the intermediate marginally more conservative.
func (c *Controller) OnGrantUnused(via, dst int) {
	if c.grantsOut[via*c.n+dst] <= 0 {
		panic(fmt.Sprintf("congestion: releasing non-existent grant at %d for %d", via, dst))
	}
	c.grantsOut[via*c.n+dst]--
}
