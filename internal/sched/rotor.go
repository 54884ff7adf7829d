package sched

import "fmt"

// RotorRR is a RotorNet-style round-robin scheduler: each uplink is a
// rotor switch cycling blindly through the cyclic-shift decomposition
// of the directed complete graph K_n (the n-1 matchings i → i+m mod n,
// m = 1..n-1). A switch holds one matching for a whole epoch and
// advances to the next at the boundary, paying Reconfig dark slots on
// every link while the rotor swings — the duty-cycle cost the Sirius
// paper charges rotor fabrics. Switches are staggered so the fabric's
// uplinks sample different shifts in any one epoch; over n-1 epochs
// every uplink visits every shift, so coverage is uniform without ever
// looking at demand (demand is ignored entirely, like RotorNet).
type RotorRR struct {
	nodes   int
	uplinks int
	slots   int // hold time per matching, in slots (incl. reconfig)
	recfg   int // leading dark slots per epoch
}

// NewRotorRR builds a rotor scheduler holding each matching for
// slotsPerEpoch slots, the first reconfigSlots of which are dark.
func NewRotorRR(nodes, uplinks, slotsPerEpoch, reconfigSlots int) (*RotorRR, error) {
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
	return &RotorRR{nodes: nodes, uplinks: uplinks, slots: slotsPerEpoch, recfg: reconfigSlots}, nil
}

// Nodes implements Scheduler.
func (r *RotorRR) Nodes() int { return r.nodes }

// Uplinks implements Scheduler.
func (r *RotorRR) Uplinks() int { return r.uplinks }

// SlotsPerEpoch implements Scheduler.
func (r *RotorRR) SlotsPerEpoch() int { return r.slots }

// ConnectionsPerEpoch implements Scheduler: a pair connected this epoch
// owns the uplink for the whole hold, so the nominal pair bandwidth is
// the serving slots of one hold.
func (r *RotorRR) ConnectionsPerEpoch() int { return r.slots - r.recfg }

// shift returns the cyclic shift (1..n-1) uplink u holds during epoch t.
// Switch start points are staggered by (n-1)/uplinks so concurrent
// uplinks sample spread-out shifts.
func (r *RotorRR) shift(epoch int64, u int) int {
	period := int64(r.nodes - 1)
	stride := int64((r.nodes - 1) / r.uplinks)
	if stride == 0 {
		stride = 1
	}
	return 1 + int((epoch+int64(u)*stride)%period)
}

// Plan implements Scheduler: matching i → i+shift on every uplink, all
// slots, with the leading reconfig slots dark. Every serving slot
// carries the same row, so the row is built once and copied.
func (r *RotorRR) Plan(epoch int64, demand []int32, dst []int32) int {
	n, up := r.nodes, r.uplinks
	plane := n * up
	fillDark(dst[:r.recfg*plane])
	row := dst[r.recfg*plane : (r.recfg+1)*plane]
	for u := 0; u < up; u++ {
		m := r.shift(epoch, u)
		// node → node+m, wrapping past n-1 without a division.
		for node := 0; node < n-m; node++ {
			row[node*up+u] = int32(node + m)
		}
		for node := n - m; node < n; node++ {
			row[node*up+u] = int32(node + m - n)
		}
	}
	for slot := r.recfg + 1; slot < r.slots; slot++ {
		copy(dst[slot*plane:(slot+1)*plane], row)
	}
	return r.recfg * plane
}

// Reset implements Scheduler: the rotor position is a pure function of
// the epoch index, so there is no state to clear.
func (r *RotorRR) Reset() {}
