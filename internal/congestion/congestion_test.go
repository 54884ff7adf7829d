package congestion

import (
	"math"
	"testing"
	"testing/quick"

	"sirius/internal/rng"
)

// drain runs one epoch of a toy data plane against the controller: sources
// use delivered grants (taking cells out of local queues), intermediates
// forward queued cells at the schedule rate.
type harness struct {
	t     *testing.T
	c     *Controller
	n     int
	local [][]int // per node, FIFO of cell destinations
	fwdq  map[[2]int]int
	done  int
}

func newHarness(t *testing.T, n, q int, seed uint64) *harness {
	c, err := New(n, q, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, c: c, n: n, local: make([][]int, n), fwdq: map[[2]int]int{}}
}

func (h *harness) offer(src, dst, cells int) {
	for i := 0; i < cells; i++ {
		h.local[src] = append(h.local[src], dst)
	}
}

func (h *harness) epoch() {
	grants := h.c.Tick(func(i int) []int {
		d := h.local[i]
		if len(d) > h.n-1 {
			d = d[:h.n-1]
		}
		return d
	})
	// Sources consume grants.
	for via, gs := range grants {
		for _, g := range gs {
			src, dst := int(g.Src), int(g.Dst)
			// Find first cell for dst in LOCAL.
			found := -1
			for i, d := range h.local[src] {
				if d == dst {
					found = i
					break
				}
			}
			if found < 0 {
				h.c.OnGrantUnused(via, dst)
				continue
			}
			h.local[src] = append(h.local[src][:found], h.local[src][found+1:]...)
			h.c.OnCellArrived(via, dst)
			if via == dst {
				h.done++ // direct delivery
			} else {
				h.fwdq[[2]int{via, dst}]++
			}
		}
	}
	// Intermediates forward one cell per destination per epoch.
	for key, n := range h.fwdq {
		if n > 0 {
			h.c.OnCellForwarded(key[0], key[1])
			h.fwdq[key] = n - 1
			h.done++
		}
	}
}

func TestGrantLatencyTwoEpochs(t *testing.T) {
	// Piggybacked control: a request issued at epoch e yields a grant
	// usable at e+2, the protocol's startup latency.
	h := newHarness(t, 8, 4, 1)
	h.offer(0, 5, 1)
	h.epoch() // e0: request issued
	if h.done != 0 {
		t.Fatal("cell moved before any grant")
	}
	h.epoch() // e1: intermediate grants
	if h.done != 0 {
		t.Fatal("cell moved before grant delivery")
	}
	h.epoch() // e2: grant delivered, cell moves (direct or via queue)
	h.epoch() // e3: intermediate forwards
	if h.done != 1 {
		t.Fatalf("cell not delivered after grant cycle, done=%d", h.done)
	}
}

// maxQueued returns the largest per-(via, dst) queue, in cells.
func maxQueued(c *Controller) int {
	m := 0
	for _, o := range c.occ {
		m = max(m, int(o.queued))
	}
	return m
}

func TestHotspotQueueBound(t *testing.T) {
	// 15 sources all flood destination 0: the defining stress. The queue
	// at every intermediate must never exceed Q (enforced by panics in
	// OnCellArrived) and the system must keep delivering.
	const n, q = 16, 4
	h := newHarness(t, n, q, 7)
	for src := 1; src < n; src++ {
		h.offer(src, 0, 50)
	}
	for e := 0; e < 2000; e++ {
		h.epoch()
		if perDest := maxQueued(h.c); perDest > q {
			t.Fatalf("epoch %d: queue %d > Q=%d", e, perDest, q)
		}
	}
	if h.done != 15*50 {
		t.Errorf("delivered %d of %d cells", h.done, 15*50)
	}
}

func TestUniformLoadDelivers(t *testing.T) {
	const n, q = 12, 4
	h := newHarness(t, n, q, 3)
	r := rng.New(99)
	offered := 0
	for src := 0; src < n; src++ {
		for k := 0; k < 30; k++ {
			dst := r.Intn(n)
			if dst == src {
				continue
			}
			h.offer(src, dst, 1)
			offered++
		}
	}
	for e := 0; e < 3000 && h.done < offered; e++ {
		h.epoch()
	}
	if h.done != offered {
		t.Errorf("delivered %d of %d", h.done, offered)
	}
}

func TestGrantPerDestinationPerEpoch(t *testing.T) {
	// An intermediate issues at most perDest grants per destination per
	// epoch.
	c, err := New(8, 16, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// All 7 other nodes request dst 3 via every intermediate.
	demand := func(i int) []int {
		if i == 3 {
			return nil
		}
		return []int{3, 3, 3, 3, 3, 3, 3}
	}
	c.Tick(demand)                                   // requests in flight
	grants := c.Tick(func(int) []int { return nil }) // processed
	// Not delivered yet at this tick (they were just issued)...
	for _, gs := range grants {
		if len(gs) != 0 {
			t.Fatal("grants delivered one epoch early")
		}
	}
	grants = c.Tick(func(int) []int { return nil })
	perVia := map[int]int{}
	for via, gs := range grants {
		for _, g := range gs {
			if g.Dst != 3 {
				t.Errorf("grant for unexpected destination %d", g.Dst)
			}
			perVia[via]++
		}
	}
	for via, n := range perVia {
		if n > 1 {
			t.Errorf("intermediate %d granted %d times for one destination in one epoch", via, n)
		}
	}
	if len(perVia) == 0 {
		t.Error("no grants issued at all")
	}
}

func TestQueueStopsGrants(t *testing.T) {
	c, err := New(4, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Fill intermediate 1's queue for destination 2 to the bound by
	// simulating grants+arrivals.
	demand := func(i int) []int {
		if i == 0 {
			return []int{2, 2, 2, 2, 2, 2}
		}
		return nil
	}
	granted := 0
	for e := 0; e < 40; e++ {
		for via, gs := range c.Tick(demand) {
			for _, g := range gs {
				c.OnCellArrived(via, int(g.Dst))
				granted++
			}
		}
		// Never forward: queues only fill.
	}
	// Each of the 3 intermediates (1, 3 as relays, 2 as direct) can hold
	// at most Q=2 for dst 2; direct delivery (via==dst) doesn't queue but
	// also stops granting once outstanding+queued >= Q... via==2 consumes
	// immediately so it keeps granting. Check relays stopped at Q.
	if q := c.occ[1*c.n+2].queued; q > 2 {
		t.Errorf("relay 1 queued %d > 2", q)
	}
	if q := c.occ[3*c.n+2].queued; q > 2 {
		t.Errorf("relay 3 queued %d > 2", q)
	}
}

func TestPropertyInvariantUnderRandomLoad(t *testing.T) {
	f := func(seed uint64) bool {
		const n, q = 10, 3
		h := newHarness(t, n, q, seed)
		r := rng.New(seed ^ 0xABCD)
		for e := 0; e < 300; e++ {
			// Random arrivals.
			for k := 0; k < 5; k++ {
				src, dst := r.Intn(n), r.Intn(n)
				if src != dst {
					h.offer(src, dst, 1)
				}
			}
			h.epoch() // panics on invariant violation
			if maxQueued(h.c) > q {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := New(1, 4, 1, 1); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := New(4, 1, 1, 1); err == nil {
		t.Error("Q=1 accepted (§4.3: minimum is 2)")
	}
	if _, err := New(4, 4, 0, 1); err == nil {
		t.Error("perDest=0 accepted")
	}
	if _, err := New(4, math.MaxInt16+1, 1, 1); err == nil {
		t.Error("Q=32768 accepted (the int16 pair counters would wrap)")
	}
	if _, err := New(4, math.MaxInt16, 1, 1); err != nil {
		t.Errorf("Q=32767 rejected: %v", err)
	}
}

func TestAccountingPanics(t *testing.T) {
	c, _ := New(4, 2, 1, 1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("arrival without grant", func() { c.OnCellArrived(1, 2) })
	mustPanic("forward from empty", func() { c.OnCellForwarded(1, 2) })
	mustPanic("release non-existent grant", func() { c.OnGrantUnused(1, 2) })
}

func TestNoDirectNeverPicksDestination(t *testing.T) {
	c, err := New(8, 4, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	c.DisallowDirect()
	demand := func(i int) []int {
		if i == 0 {
			return []int{5, 5, 5}
		}
		return nil
	}
	for e := 0; e < 50; e++ {
		for via, gs := range c.Tick(demand) {
			for _, g := range gs {
				dst := int(g.Dst)
				if via == dst {
					t.Fatal("direct grant issued under DisallowDirect")
				}
				c.OnCellArrived(via, dst)
				c.OnCellForwarded(via, dst)
			}
		}
	}
}

func TestInstantControlGrantsSameEpoch(t *testing.T) {
	c, err := New(8, 4, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	c.InstantControl()
	demand := func(i int) []int {
		if i == 0 {
			return []int{5}
		}
		return nil
	}
	grants := c.Tick(demand)
	total := 0
	for _, gs := range grants {
		total += len(gs)
	}
	if total != 1 {
		t.Fatalf("instant control issued %d grants in the first epoch, want 1", total)
	}
}

func TestExcludeViasNeverPicked(t *testing.T) {
	c, err := New(8, 4, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	failed := make([]bool, 8)
	failed[3] = true
	if err := c.ExcludeVias(failed); err != nil {
		t.Fatal(err)
	}
	demand := func(i int) []int {
		if i == 0 {
			return []int{5, 5, 5, 5, 5}
		}
		return nil
	}
	for e := 0; e < 50; e++ {
		for via, gs := range c.Tick(demand) {
			for _, g := range gs {
				dst := int(g.Dst)
				if via == 3 {
					t.Fatal("failed node used as intermediate")
				}
				c.OnCellArrived(via, dst)
				if via != dst {
					c.OnCellForwarded(via, dst)
				}
			}
		}
	}
}

func TestExcludeViasValidation(t *testing.T) {
	c, _ := New(4, 4, 1, 1)
	if err := c.ExcludeVias([]bool{true}); err == nil {
		t.Error("short mask accepted")
	}
	if err := c.ExcludeVias([]bool{true, true, true, false}); err == nil {
		t.Error("mask with <2 live nodes accepted")
	}
}
