// Package schedule implements Sirius' "scheduler-less" static schedule
// (§4.2): a pre-determined cyclic connection pattern that, combined with
// Valiant load-balanced routing, serves any traffic pattern without
// collecting demands or computing assignments.
//
// Two constructions are provided:
//
//   - Grouped: the paper's physical construction. Nodes are partitioned
//     into groups of G (the grating port count); uplink u of every node is
//     wired to the grating feeding destination group u and cycles through
//     that group's G nodes wavelength-by-wavelength, one per timeslot. The
//     epoch is G timeslots and every ordered node pair is connected exactly
//     once per epoch per plane.
//
//   - Rotor: a generalized construction for arbitrary uplink counts
//     (including fractional provisioning like the paper's 1.5×): uplink u
//     in slot s connects node i to node (i + uE + s) mod N, with the epoch
//     E chosen so that U·E is a multiple of N.
//
// Both are contention-free: within any timeslot and any uplink plane, the
// source-to-destination map is a permutation, so no receiver port sees two
// simultaneous transmitters — the property that lets the optical core have
// no buffers at all.
package schedule

import (
	"fmt"

	"sirius/internal/optics"
)

// Schedule is a static, cyclic transmission schedule.
type Schedule interface {
	// Nodes returns the number of nodes.
	Nodes() int
	// Uplinks returns the number of transceivers per node.
	Uplinks() int
	// SlotsPerEpoch returns the epoch length in timeslots.
	SlotsPerEpoch() int
	// ConnectionsPerEpoch returns how many times each ordered node pair is
	// connected per epoch (the pair bandwidth in slots/epoch). Includes
	// self-connections.
	ConnectionsPerEpoch() int
	// Dst returns the destination that uplink u of node i reaches in slot
	// s of the epoch, or -1 when the slot is unusable (failed node).
	Dst(node, uplink, slot int) int
	// RxPort returns the receiver-side port on which the destination
	// receives a transmission from uplink u of node src. Nodes have as
	// many receive ports as uplinks; the contention-freedom invariant is
	// that no (destination, rx port) pair hears two transmitters in one
	// slot.
	RxPort(src, uplink int) int
}

// Grouped is the paper's grating-group schedule.
type Grouped struct {
	nodes        int
	gratingPorts int
	multiplicity int
}

// NewGrouped builds the paper's schedule for nodes partitioned into groups
// of gratingPorts, with multiplicity planes of uplinks.
func NewGrouped(nodes, gratingPorts, multiplicity int) (*Grouped, error) {
	switch {
	case nodes < 2:
		return nil, fmt.Errorf("schedule: need >= 2 nodes")
	case gratingPorts < 1 || nodes%gratingPorts != 0:
		return nil, fmt.Errorf("schedule: nodes (%d) must be a multiple of grating ports (%d)", nodes, gratingPorts)
	case multiplicity < 1:
		return nil, fmt.Errorf("schedule: multiplicity must be >= 1")
	}
	return &Grouped{nodes: nodes, gratingPorts: gratingPorts, multiplicity: multiplicity}, nil
}

// New builds the static cyclic schedule for nodes behind
// gratingPorts-port gratings with uplinks transceivers each: the paper's
// grouped schedule when the uplinks divide evenly over the
// nodes/gratingPorts groups, the generalized rotor otherwise (e.g. 1.5x
// provisioning).
func New(nodes, gratingPorts, uplinks int) (Schedule, error) {
	if nodes < 2 || gratingPorts < 1 || nodes%gratingPorts != 0 {
		return nil, fmt.Errorf("schedule: invalid topology: %d nodes, %d grating ports", nodes, gratingPorts)
	}
	if groups := nodes / gratingPorts; uplinks%groups == 0 {
		return NewGrouped(nodes, gratingPorts, uplinks/groups)
	}
	return NewRotor(nodes, uplinks)
}

// Nodes implements Schedule.
func (g *Grouped) Nodes() int { return g.nodes }

// Uplinks implements Schedule.
func (g *Grouped) Uplinks() int { return g.nodes / g.gratingPorts * g.multiplicity }

// SlotsPerEpoch implements Schedule.
func (g *Grouped) SlotsPerEpoch() int { return g.gratingPorts }

// ConnectionsPerEpoch implements Schedule.
func (g *Grouped) ConnectionsPerEpoch() int { return g.multiplicity }

// groups returns the number of node groups.
func (g *Grouped) groups() int { return g.nodes / g.gratingPorts }

// Dst implements Schedule. Uplink u = destGroup + plane*groups; planes are
// staggered across the epoch so a pair's multiple connections spread out.
func (g *Grouped) Dst(node, uplink, slot int) int {
	g.check(node, uplink, slot)
	destGroup := uplink % g.groups()
	plane := uplink / g.groups()
	stagger := g.gratingPorts * plane / g.multiplicity
	port := (node + slot + stagger) % g.gratingPorts
	return destGroup*g.gratingPorts + port
}

// Wavelength returns the laser wavelength uplink u of node i must use in
// slot s, consistent with cyclic AWGR routing: the grating input port is
// (node mod G), the output port is (dst mod G), and the wavelength is
// their cyclic difference.
//
// A key property (tested) falls out: the wavelength depends only on the
// slot and the plane, not on the node or destination group — so all
// transceivers of a node (within a plane) use the same wavelength at any
// instant, enabling the §4.5 laser sharing.
func (g *Grouped) Wavelength(node, uplink, slot int) optics.Wavelength {
	g.check(node, uplink, slot)
	plane := uplink / g.groups()
	stagger := g.gratingPorts * plane / g.multiplicity
	return optics.Wavelength((slot + stagger) % g.gratingPorts)
}

// RxPort implements Schedule: a destination in group g hears source group
// a, plane p on receive port a + p*groups — one port per grating it is an
// output of.
func (g *Grouped) RxPort(src, uplink int) int {
	g.check(src, 0, 0)
	plane := uplink / g.groups()
	return src/g.gratingPorts + plane*g.groups()
}

func (g *Grouped) check(node, uplink, slot int) {
	if node < 0 || node >= g.nodes {
		panic(fmt.Sprintf("schedule: node %d out of range", node))
	}
	if uplink < 0 || uplink >= g.Uplinks() {
		panic(fmt.Sprintf("schedule: uplink %d out of range", uplink))
	}
	if slot < 0 || slot >= g.gratingPorts {
		panic(fmt.Sprintf("schedule: slot %d out of range", slot))
	}
}

// Rotor is the generalized schedule: uplink u in slot s connects node i to
// (i + uE + s) mod N. It supports any uplink count, at the cost of an
// abstract (relative-window) grating wiring.
type Rotor struct {
	nodes   int
	uplinks int
	slots   int // E
}

// NewRotor builds a rotor schedule, choosing the smallest epoch E >= 1
// with U·E a multiple of N (so pair bandwidth is uniform).
func NewRotor(nodes, uplinks int) (*Rotor, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("schedule: need >= 2 nodes")
	}
	if uplinks < 1 {
		return nil, fmt.Errorf("schedule: need >= 1 uplink")
	}
	e := nodes / gcd(nodes, uplinks)
	return &Rotor{nodes: nodes, uplinks: uplinks, slots: e}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Nodes implements Schedule.
func (r *Rotor) Nodes() int { return r.nodes }

// Uplinks implements Schedule.
func (r *Rotor) Uplinks() int { return r.uplinks }

// SlotsPerEpoch implements Schedule.
func (r *Rotor) SlotsPerEpoch() int { return r.slots }

// ConnectionsPerEpoch implements Schedule.
func (r *Rotor) ConnectionsPerEpoch() int { return r.uplinks * r.slots / r.nodes }

// Dst implements Schedule.
func (r *Rotor) Dst(node, uplink, slot int) int {
	if node < 0 || node >= r.nodes || uplink < 0 || uplink >= r.uplinks || slot < 0 || slot >= r.slots {
		panic("schedule: index out of range")
	}
	return (node + uplink*r.slots + slot) % r.nodes
}

// RxPort implements Schedule: with the rotor construction, for a fixed
// uplink index the source-to-destination map is a global permutation, so
// the uplink index itself identifies the receive port.
func (r *Rotor) RxPort(src, uplink int) int { return uplink }

// Degraded wraps a schedule after node failures: slots whose destination
// has failed are unusable (-1), so each surviving node loses a
// proportional 1/N of bandwidth per failed node (§4.5). The failed node's
// own uplinks are also silenced.
type Degraded struct {
	Schedule
	failed []bool
}

// NewDegraded marks the given nodes failed.
func NewDegraded(s Schedule, failedNodes []int) (*Degraded, error) {
	f := make([]bool, s.Nodes())
	for _, n := range failedNodes {
		if n < 0 || n >= s.Nodes() {
			return nil, fmt.Errorf("schedule: failed node %d out of range", n)
		}
		f[n] = true
	}
	return &Degraded{Schedule: s, failed: f}, nil
}

// Dst implements Schedule, returning -1 for slots touching failed nodes.
func (d *Degraded) Dst(node, uplink, slot int) int {
	if d.failed[node] {
		return -1
	}
	dst := d.Schedule.Dst(node, uplink, slot)
	if dst >= 0 && d.failed[dst] {
		return -1
	}
	return dst
}

// Compact rebuilds a rotor schedule over only the surviving nodes,
// regaining the bandwidth lost to failures at the cost of a consistent
// datacenter-wide schedule update (§4.5). It returns the new schedule and
// the mapping from compact index to original node id.
func Compact(s Schedule, failedNodes []int) (*Rotor, []int, error) {
	failed := make([]bool, s.Nodes())
	for _, n := range failedNodes {
		if n < 0 || n >= s.Nodes() {
			return nil, nil, fmt.Errorf("schedule: failed node %d out of range", n)
		}
		failed[n] = true
	}
	var live []int
	for n := 0; n < s.Nodes(); n++ {
		if !failed[n] {
			live = append(live, n)
		}
	}
	if len(live) < 2 {
		return nil, nil, fmt.Errorf("schedule: fewer than 2 nodes survive")
	}
	// A rotor over a node count coprime with the uplink count would have
	// an N-slot epoch, exploding control latency and in-flight windows.
	// Keep every uplink when the epoch stays reasonable; otherwise trade
	// at most two uplinks for the shortest epoch available — capacity
	// first, responsiveness second.
	n := len(live)
	maxU := s.Uplinks()
	epochCap := 4 * n / maxU
	if epochCap < 2 {
		epochCap = 2
	}
	bestU, bestE := maxU, n/gcd(n, maxU)
	if bestE > epochCap {
		for u := maxU; u >= 1 && u >= maxU-2; u-- {
			e := n / gcd(n, u)
			if e < bestE || (e == bestE && u > bestU) {
				bestU, bestE = u, e
			}
		}
	}
	r, err := NewRotor(n, bestU)
	if err != nil {
		return nil, nil, err
	}
	return r, live, nil
}

// CheckContentionFree verifies the defining safety property: in any slot,
// no (destination, receive port) pair hears more than one transmitter —
// the optical core has no buffers, so simultaneous arrivals on one port
// would collide. It returns an error describing the first violation.
func CheckContentionFree(s Schedule) error {
	n, u, e := s.Nodes(), s.Uplinks(), s.SlotsPerEpoch()
	seen := make([]int, n*u)
	for slot := 0; slot < e; slot++ {
		for i := range seen {
			seen[i] = -1
		}
		for up := 0; up < u; up++ {
			for src := 0; src < n; src++ {
				dst := s.Dst(src, up, slot)
				if dst < 0 {
					continue
				}
				if dst >= n {
					return fmt.Errorf("slot %d uplink %d: node %d targets out-of-range %d", slot, up, src, dst)
				}
				port := s.RxPort(src, up)
				if port < 0 || port >= u {
					return fmt.Errorf("slot %d uplink %d: rx port %d out of range", slot, up, port)
				}
				if prev := seen[dst*u+port]; prev >= 0 {
					return fmt.Errorf("slot %d: nodes %d and %d both target %d rx port %d", slot, prev, src, dst, port)
				}
				seen[dst*u+port] = src
			}
		}
	}
	return nil
}

// CheckUniformCoverage verifies the load-balancing property: every ordered
// pair (including self-pairs) is connected exactly ConnectionsPerEpoch
// times per epoch.
func CheckUniformCoverage(s Schedule) error {
	n, u, e, k := s.Nodes(), s.Uplinks(), s.SlotsPerEpoch(), s.ConnectionsPerEpoch()
	count := make([]int, n*n)
	for slot := 0; slot < e; slot++ {
		for up := 0; up < u; up++ {
			for src := 0; src < n; src++ {
				dst := s.Dst(src, up, slot)
				if dst >= 0 {
					count[src*n+dst]++
				}
			}
		}
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if got := count[src*n+dst]; got != k {
				return fmt.Errorf("pair (%d,%d) connected %d times per epoch, want %d", src, dst, got, k)
			}
		}
	}
	return nil
}
