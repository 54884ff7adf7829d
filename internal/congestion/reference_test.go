package congestion

// The reference controller: the request/grant controller as first
// written, kept unchanged so the optimized Controller can be compared
// against it grant by grant. It holds per-(intermediate, destination)
// request lists, per-source grant lists and separate queued/grantsOut
// arrays. TestMatchesReference and FuzzTick drive both from one seeded
// script.

import (
	"fmt"
	"slices"
	"testing"

	"sirius/internal/rng"
)

// refGrant authorizes Src to forward one cell destined Dst via intermediate
// Via in the coming epoch.
type refGrant struct {
	Src, Via, Dst int
}

// refController runs the protocol for every node of the fabric. It is the
// control plane only: the data plane (cell movement) belongs to the
// caller, which reports arrivals and departures so the controller can
// track queue occupancy.
type refController struct {
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
	inflight []refReqSet

	// Grants in flight, delivered to sources at the next Tick. Two
	// buffers alternate: the one handed out by the previous Tick is
	// truncated (capacity kept) and becomes the accumulation target, so
	// steady-state Ticks allocate nothing while honoring the "returned
	// slices are valid until the next Tick" contract.
	granted    [][]refGrant
	grantedOld [][]refGrant

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

// refReqSet accumulates the requests one intermediate received this epoch,
// indexed by destination, preserving insertion order for determinism.
// Slices are reused across epochs (reset keeps their capacity).
type refReqSet struct {
	dsts []int32
	srcs [][]int32 // per destination; sized to the node count
}

func (r *refReqSet) add(dst, src int) {
	if len(r.srcs[dst]) == 0 {
		r.dsts = append(r.dsts, int32(dst))
	}
	r.srcs[dst] = append(r.srcs[dst], int32(src))
}

func (r *refReqSet) reset() {
	for _, d := range r.dsts {
		r.srcs[d] = r.srcs[d][:0]
	}
	r.dsts = r.dsts[:0]
}

// newRef returns a controller for n nodes with queue bound q. perDest is the
// number of pair-connections per epoch the schedule provides (grants
// issuable per destination per epoch); the common case is 1.
func newRef(n, q, perDest int, seed uint64) (*refController, error) {
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
	c := &refController{
		n:          n,
		q:          q,
		perDest:    perDest,
		r:          rng.New(seed),
		queued:     make([]int16, n*n),
		grantsOut:  make([]int16, n*n),
		inflight:   make([]refReqSet, n),
		granted:    make([][]refGrant, n),
		grantedOld: make([][]refGrant, n),
		used:       make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		c.inflight[i].srcs = make([][]int32, n)
	}
	return c, nil
}

// DisallowDirect is an ablation switch: the destination itself is no
// longer a valid intermediate, so every cell detours (pure VLB).
func (c *refController) DisallowDirect() { c.noDirect = true }

// InstantControl is an ablation switch: requests and grants propagate
// instantaneously instead of riding piggybacked for an epoch each — an
// oracle control plane that prices the piggybacking latency.
func (c *refController) InstantControl() { c.instant = true }

// ExcludeVias marks nodes that must not be chosen as intermediates
// (failed nodes whose schedule slots are dark). At least two live nodes
// must remain.
func (c *refController) ExcludeVias(failed []bool) error {
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
func (c *refController) Tick(demand func(node int) []int) [][]refGrant {
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
func (c *refController) swapGranted() [][]refGrant {
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
func (c *refController) processRequests() {
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
				c.granted[src] = append(c.granted[src], refGrant{Src: src, Via: via, Dst: dst})
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
func (c *refController) issueRequests(demand func(node int) []int) {
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
func (c *refController) pickAvailable(src, dst int) int {
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
func (c *refController) OnCellArrived(via, dst int) {
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
func (c *refController) OnCellForwarded(via, dst int) {
	if c.queued[via*c.n+dst] <= 0 {
		panic(fmt.Sprintf("congestion: forward from empty queue at %d for %d", via, dst))
	}
	c.queued[via*c.n+dst]--
}

// OnGrantUnused releases a grant the source could not use (the cell it was
// for left via another grant). In the real system this notification rides
// piggybacked like everything else; the model applies it immediately,
// which only makes the intermediate marginally more conservative.
func (c *refController) OnGrantUnused(via, dst int) {
	if c.grantsOut[via*c.n+dst] <= 0 {
		panic(fmt.Sprintf("congestion: releasing non-existent grant at %d for %d", via, dst))
	}
	c.grantsOut[via*c.n+dst]--
}

// refScript is one seeded comparison run: a toy data plane (per-node
// LOCAL queues of cell destinations) drives the Controller and the
// reference in lockstep. Every grant is randomly used or released, queued
// cells are randomly forwarded, and after every Tick both controllers'
// grants (per source, in order) and full occupancy must agree.
func refScript(t testing.TB, seed uint64, epochs int) {
	t.Helper()
	r := rng.New(seed)
	n := 2 + r.Intn(39)
	perDest := 1 + r.Intn(3)
	q := 2 + r.Intn(15)
	c, err := New(n, q, perDest, seed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRef(n, q, perDest, seed)
	if err != nil {
		t.Fatal(err)
	}
	desc := fmt.Sprintf("seed %d: n=%d q=%d perDest=%d", seed, n, q, perDest)
	if n > 2 && r.Intn(3) == 0 {
		failed := make([]bool, n)
		for i := r.Intn(n - 1); i > 0; i-- { // at least 2 stay live
			failed[r.Intn(n)] = true
		}
		if err := c.ExcludeVias(failed); err != nil {
			t.Fatal(err)
		}
		if err := ref.ExcludeVias(failed); err != nil {
			t.Fatal(err)
		}
		desc += fmt.Sprintf(" failed=%v", failed)
	}
	if r.Intn(4) == 0 {
		c.DisallowDirect()
		ref.DisallowDirect()
		desc += " no-direct"
	}
	if r.Intn(4) == 0 {
		c.InstantControl()
		ref.InstantControl()
		desc += " instant"
	}
	local := make([][]int, n)
	limit := perDest * (n - 1)
	demand := func(i int) []int {
		d := local[i]
		if len(d) > limit {
			d = d[:limit]
		}
		return d
	}
	arrivals := 1 + r.Intn(2*n)
	useP := 1 + r.Intn(8) // a grant is used with probability useP/8
	var fromRef, fromNew []refGrant
	for e := 0; e < epochs; e++ {
		for k := r.Intn(arrivals + 1); k > 0; k-- {
			src, dst := r.Intn(n), r.Intn(n)
			if src != dst {
				local[src] = append(local[src], dst)
			}
		}
		got, want := c.Tick(demand), ref.Tick(demand)
		for src := 0; src < n; src++ {
			fromRef = append(fromRef[:0], want[src]...)
			fromNew = fromNew[:0]
			for via, gs := range got {
				for _, g := range gs {
					if int(g.Src) == src {
						fromNew = append(fromNew, refGrant{Src: src, Via: via, Dst: int(g.Dst)})
					}
				}
			}
			if !slices.Equal(fromNew, fromRef) {
				t.Fatalf("%s: epoch %d source %d: grants %v, reference %v", desc, e, src, fromNew, fromRef)
			}
		}
		// Use or release every grant, in the reference's order; both
		// controllers see the same calls.
		for src := 0; src < n; src++ {
			for _, g := range want[src] {
				at := -1
				for i, d := range local[src] {
					if d == g.Dst {
						at = i
						break
					}
				}
				if at < 0 || r.Intn(8) >= useP {
					c.OnGrantUnused(g.Via, g.Dst)
					ref.OnGrantUnused(g.Via, g.Dst)
					continue
				}
				local[src] = append(local[src][:at], local[src][at+1:]...)
				c.OnCellArrived(g.Via, g.Dst)
				ref.OnCellArrived(g.Via, g.Dst)
			}
		}
		// Intermediates forward a random share of their queued cells.
		for i, qd := range ref.queued {
			for f := r.Intn(int(qd) + 1); f > 0; f-- {
				c.OnCellForwarded(i/n, i%n)
				ref.OnCellForwarded(i/n, i%n)
			}
		}
		for i, o := range c.occ {
			if o.queued != ref.queued[i] || o.grantsOut != ref.grantsOut[i] {
				t.Fatalf("%s: epoch %d: pair (%d, %d) holds queued %d, grants out %d; reference %d, %d",
					desc, e, i/n, i%n, o.queued, o.grantsOut, ref.queued[i], ref.grantsOut[i])
			}
		}
	}
}

// TestMatchesReference compares the Controller with the reference over
// seeded scripts spanning n 2–40, perDest 1–3, q 2–16 and the ablation
// switches.
func TestMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 200; seed++ {
		refScript(t, seed, 120)
	}
}

func FuzzTick(f *testing.F) {
	for seed := uint64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		refScript(t, seed, 80)
	})
}
