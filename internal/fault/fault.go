// Package fault is the deterministic fault-injection plane for the live
// wire testbed (internal/wire): a scripted, seeded plan of failures that
// the emulator (the "grating") and the node loops consult while a run is
// in flight.
//
// The paper's §4.5 failure classes map onto the plan's event kinds:
//
//   - fail-stop node failure  → Crash (the node stops at an epoch boundary)
//   - transceiver/link flap   → Flap (the node drops its TCP connection
//     and re-registers with capped exponential backoff)
//   - grey failure            → Grey (the emulator blackholes one
//     (input, output) port pair: the node looks alive to everyone except
//     the observers it has gone dark toward)
//   - operation below receiver sensitivity → Degrade (per-input-port
//     bit-error-rate override)
//   - slow/soft failure       → Stall (per-input-port frame delay; wall
//     time only, never affects the frame stream's contents)
//
// Beyond reactive faults, plans also script *planned* fleet-lifecycle
// operations (the Mission Apollo story — expansion, maintenance drains,
// rolling change):
//
//   - live expansion     → Expand (the node is not an initial member; the
//     running members admit it at an agreed switch epoch)
//   - maintenance drain  → Drain (the node announces, the fabric stops
//     scheduling toward it, it detaches with zero cell loss)
//   - re-add after drain → Readd (the members re-admit a drained node)
//   - rolling restart    → Restart (re-admission of a node that crashed
//     or drained earlier; Validate rejects a Restart with no prior
//     Crash/Drain for that node)
//
// # Overlap precedence
//
// Multiple windowed events may cover the same (port, epoch). The plan
// resolves overlaps deterministically, pinned by tests:
//
//   - Degrade: the effective flip probability is the MAX over all active
//     windows and the base probability — degradations never mask each
//     other or repair the base rate.
//   - Stall: the effective delay is the MAX over all active windows (not
//     first-match) — the slowest overlapping stall wins.
//   - Grey: the union — a frame is dropped if ANY active window matches
//     its (src, dst) pair.
//
// Every event is keyed to a fabric epoch, and epochs are carried in-band
// by cell sequence numbers, so a plan replays byte-identically: the same
// plan, seed, and topology produce the same frame-level history
// regardless of scheduling or wall-clock timing. Plans are
// content-addressed (Hash) so experiment manifests can name exactly which
// chaos was injected.
package fault

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Kind names a fault event type.
type Kind string

// Event kinds. Crash, Flap, Drain and the rejoin kinds (Restart, Readd)
// execute inside the node loop; Expand anchors the epoch at which the
// running members admit a new node; Grey, Degrade and Stall execute
// inside the emulator.
const (
	Crash   Kind = "crash"   // node stops before transmitting Epoch (fail-stop)
	Flap    Kind = "flap"    // node drops its connection at Epoch and re-registers
	Grey    Kind = "grey"    // emulator drops Src→Dst frames for epochs in [Epoch, Until)
	Degrade Kind = "degrade" // emulator applies FlipProb to input Src for [Epoch, Until)
	Stall   Kind = "stall"   // emulator delays input Src's frames by Delay for [Epoch, Until)

	// Lifecycle kinds (planned operations, not faults).
	Expand  Kind = "expand"  // node joins the running fabric: members propose at Epoch, switch at Epoch+2
	Drain   Kind = "drain"   // node announces at Epoch, transmits through Epoch+1, detaches at Epoch+2
	Readd   Kind = "readd"   // members re-admit a previously drained node: propose at Epoch, switch at Epoch+2
	Restart Kind = "restart" // re-admit a node that crashed or drained earlier (rolling restart)
)

// Event is one scripted fault. Epoch is the fabric epoch at which it
// activates; Until (exclusive) ends windowed faults, with 0 meaning
// "until the end of the run".
type Event struct {
	Kind  Kind `json:"kind"`
	Epoch int  `json:"epoch"`
	Until int  `json:"until,omitempty"`

	// Node is the subject of Crash/Flap/Expand/Drain/Readd/Restart events.
	Node int `json:"node,omitempty"`

	// Src and Dst are emulator port indices (== node ids in the one-uplink
	// testbed). Grey uses both; Degrade and Stall use Src only.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`

	// FlipProb is the per-bit corruption probability for Degrade events.
	FlipProb float64 `json:"flip_prob,omitempty"`

	// DelayMicros is the per-frame forwarding delay for Stall events, in
	// microseconds (kept integral so plans hash stably across platforms).
	DelayMicros int `json:"delay_us,omitempty"`
}

// Plan is a seeded script of fault events. The seed drives every random
// choice the injection plane makes (per-port corruption substreams), so a
// plan replays byte-identically.
type Plan struct {
	Seed   uint64  `json:"seed"`
	Events []Event `json:"events"`
}

// KillPlan is the common case: fail-stop node crash at the given epoch.
func KillPlan(node, epoch int, seed uint64) *Plan {
	return &Plan{Seed: seed, Events: []Event{{Kind: Crash, Node: node, Epoch: epoch}}}
}

// Validate checks the plan against a topology of the given node count.
//
// Beyond per-event range checks it enforces the lifecycle ordering
// contract: at most one event of each per-node kind per node, a Restart
// only after a strictly earlier Crash or Drain of the same node, a Readd
// only after a strictly earlier Drain, at most one rejoin (Restart or
// Readd) per node, and no Crash or Flap scripted for a node that also
// drains or joins late (those interleavings have no defined timeline).
func (p *Plan) Validate(nodes int) error {
	if p == nil {
		return nil
	}
	perNode := map[Kind]map[int]int{} // kind → node → epoch
	for i, e := range p.Events {
		prefix := fmt.Sprintf("fault: event %d (%s)", i, e.Kind)
		if e.Epoch < 0 {
			return fmt.Errorf("%s: negative epoch %d", prefix, e.Epoch)
		}
		if e.Until != 0 && e.Until <= e.Epoch {
			return fmt.Errorf("%s: until %d not after epoch %d", prefix, e.Until, e.Epoch)
		}
		switch e.Kind {
		case Crash, Flap, Expand, Drain, Readd, Restart:
			if e.Node < 0 || e.Node >= nodes {
				return fmt.Errorf("%s: node %d out of range [0,%d)", prefix, e.Node, nodes)
			}
			if _, dup := perNode[e.Kind][e.Node]; dup {
				return fmt.Errorf("%s: duplicate %s event for node %d", prefix, e.Kind, e.Node)
			}
			if perNode[e.Kind] == nil {
				perNode[e.Kind] = map[int]int{}
			}
			perNode[e.Kind][e.Node] = e.Epoch
		case Grey:
			if e.Src < 0 || e.Src >= nodes || e.Dst < 0 || e.Dst >= nodes {
				return fmt.Errorf("%s: port pair (%d,%d) out of range [0,%d)", prefix, e.Src, e.Dst, nodes)
			}
		case Degrade:
			if e.Src < 0 || e.Src >= nodes {
				return fmt.Errorf("%s: port %d out of range [0,%d)", prefix, e.Src, nodes)
			}
			if e.FlipProb < 0 || e.FlipProb >= 1 {
				return fmt.Errorf("%s: flip probability %v outside [0,1)", prefix, e.FlipProb)
			}
		case Stall:
			if e.Src < 0 || e.Src >= nodes {
				return fmt.Errorf("%s: port %d out of range [0,%d)", prefix, e.Src, nodes)
			}
			if e.DelayMicros < 0 {
				return fmt.Errorf("%s: negative delay", prefix)
			}
		default:
			return fmt.Errorf("%s: unknown kind", prefix)
		}
	}
	return p.validateLifecycle(perNode)
}

// validateLifecycle enforces the cross-event ordering rules between the
// per-node lifecycle kinds collected by Validate.
func (p *Plan) validateLifecycle(perNode map[Kind]map[int]int) error {
	epoch := func(k Kind, node int) (int, bool) {
		e, ok := perNode[k][node]
		return e, ok
	}
	for node, re := range perNode[Restart] {
		ce, crashed := epoch(Crash, node)
		de, drained := epoch(Drain, node)
		switch {
		case !crashed && !drained:
			return fmt.Errorf("fault: restart of node %d has no prior crash or drain (use %q for a connection flap)", node, Flap)
		case crashed && re <= ce:
			return fmt.Errorf("fault: restart of node %d at epoch %d not after its crash at %d", node, re, ce)
		case drained && re <= de:
			return fmt.Errorf("fault: restart of node %d at epoch %d not after its drain at %d", node, re, de)
		}
	}
	for node, re := range perNode[Readd] {
		de, drained := epoch(Drain, node)
		if !drained {
			return fmt.Errorf("fault: readd of node %d has no prior drain", node)
		}
		if re <= de {
			return fmt.Errorf("fault: readd of node %d at epoch %d not after its drain at %d", node, re, de)
		}
		if _, also := epoch(Restart, node); also {
			return fmt.Errorf("fault: node %d has both a readd and a restart; script one rejoin", node)
		}
	}
	for node := range perNode[Drain] {
		if _, crashed := epoch(Crash, node); crashed {
			return fmt.Errorf("fault: node %d has both a drain and a crash; the interleaving is undefined", node)
		}
		if _, flaps := epoch(Flap, node); flaps {
			return fmt.Errorf("fault: node %d has both a drain and a flap; the interleaving is undefined", node)
		}
	}
	for node := range perNode[Expand] {
		for _, k := range []Kind{Crash, Flap, Drain} {
			if _, also := epoch(k, node); also {
				return fmt.Errorf("fault: node %d joins late (expand) but also has a %s event; the interleaving is undefined", node, k)
			}
		}
	}
	return nil
}

// active reports whether a windowed event applies at the given epoch.
func (e Event) active(epoch int) bool {
	if epoch < e.Epoch {
		return false
	}
	return e.Until == 0 || epoch < e.Until
}

// CrashEpoch returns the epoch at which the node is scripted to crash, or
// -1. The node transmits epochs [0, CrashEpoch) and then dies.
func (p *Plan) CrashEpoch(node int) int { return p.nodeEpoch(Crash, node) }

// FlapEpoch returns the epoch at which the node is scripted to drop its
// connection and re-register (a link flap), or -1.
func (p *Plan) FlapEpoch(node int) int { return p.nodeEpoch(Flap, node) }

// DrainEpoch returns the epoch at which the node announces its planned
// drain, or -1. The node transmits epochs [0, DrainEpoch+2) and then
// detaches; the switch epoch is DrainEpoch+2.
func (p *Plan) DrainEpoch(node int) int { return p.nodeEpoch(Drain, node) }

// ExpandEpoch returns the epoch at which the members are scripted to
// admit this late-joining node, or -1 if the node is an initial member.
func (p *Plan) ExpandEpoch(node int) int { return p.nodeEpoch(Expand, node) }

// RejoinEpoch returns the epoch at which the members are scripted to
// re-admit the node — its Restart or Readd event, whichever the plan
// scripts (Validate allows at most one) — or -1.
func (p *Plan) RejoinEpoch(node int) int {
	if e := p.nodeEpoch(Restart, node); e >= 0 {
		return e
	}
	return p.nodeEpoch(Readd, node)
}

// Joiners returns the sorted node ids with Expand events — nodes that
// are NOT initial members and join the running fabric at their scripted
// epoch.
func (p *Plan) Joiners() []int {
	if p == nil {
		return nil
	}
	var js []int
	for _, e := range p.Events {
		if e.Kind == Expand {
			js = append(js, e.Node)
		}
	}
	sort.Ints(js)
	return js
}

func (p *Plan) nodeEpoch(k Kind, node int) int {
	if p == nil {
		return -1
	}
	for _, e := range p.Events {
		if e.Kind == k && e.Node == node {
			return e.Epoch
		}
	}
	return -1
}

// GreyDrop reports whether a frame from input port src destined output
// port dst at the given epoch is blackholed: true if ANY active Grey
// window matches the pair (overlapping windows union).
func (p *Plan) GreyDrop(src, dst, epoch int) bool {
	if p == nil {
		return false
	}
	for _, e := range p.Events {
		if e.Kind == Grey && e.Src == src && e.Dst == dst && e.active(epoch) {
			return true
		}
	}
	return false
}

// FlipProb returns the effective per-bit corruption probability for a
// frame from input port src at the given epoch: the largest active
// Degrade override, or base if none applies.
func (p *Plan) FlipProb(src, epoch int, base float64) float64 {
	if p == nil {
		return base
	}
	prob := base
	for _, e := range p.Events {
		if e.Kind == Degrade && e.Src == src && e.active(epoch) && e.FlipProb > prob {
			prob = e.FlipProb
		}
	}
	return prob
}

// StallDelay returns the forwarding delay for a frame from input port src
// at the given epoch: the LARGEST active Stall window's delay (0 if
// none) — overlapping stalls do not add, the slowest wins. Stall affects
// wall time only.
func (p *Plan) StallDelay(src, epoch int) time.Duration {
	if p == nil {
		return 0
	}
	var d time.Duration
	for _, e := range p.Events {
		if e.Kind == Stall && e.Src == src && e.active(epoch) {
			if dd := time.Duration(e.DelayMicros) * time.Microsecond; dd > d {
				d = dd
			}
		}
	}
	return d
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool { return p == nil || len(p.Events) == 0 }

// Canonical returns the canonical JSON encoding: events sorted by
// (epoch, kind, node, src, dst), stable field order. Two plans with the
// same injected behavior canonicalize identically.
func (p *Plan) Canonical() []byte {
	cp := Plan{Seed: p.Seed, Events: append([]Event(nil), p.Events...)}
	sort.SliceStable(cp.Events, func(i, j int) bool {
		a, b := cp.Events[i], cp.Events[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	data, err := json.Marshal(cp)
	if err != nil {
		// Plan contains only marshalable fields; unreachable.
		panic(err)
	}
	return data
}

// Hash content-addresses the plan: a short hex digest of its canonical
// encoding, stable across field ordering and event permutation.
func (p *Plan) Hash() string {
	if p == nil {
		return "none"
	}
	sum := sha256.Sum256(p.Canonical())
	return hex.EncodeToString(sum[:8])
}

// Parse decodes a plan from JSON.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("fault: bad plan: %w", err)
	}
	return &p, nil
}

// Load reads a plan from a JSON file.
func Load(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	return Parse(data)
}
