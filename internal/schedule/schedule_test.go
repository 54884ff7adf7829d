package schedule

import (
	"testing"
	"testing/quick"

	"sirius/internal/optics"
)

func TestGroupedFig5(t *testing.T) {
	// The 4-node, 2-port-grating network of Fig. 5: epoch of two slots,
	// every pair (including self) connected once per epoch.
	g, err := NewGrouped(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Uplinks() != 2 || g.SlotsPerEpoch() != 2 || g.ConnectionsPerEpoch() != 1 {
		t.Fatalf("uplinks/slots/k = %d/%d/%d, want 2/2/1",
			g.Uplinks(), g.SlotsPerEpoch(), g.ConnectionsPerEpoch())
	}
	if err := CheckContentionFree(g); err != nil {
		t.Error(err)
	}
	if err := CheckUniformCoverage(g); err != nil {
		t.Error(err)
	}
	// Fig. 5b, read with nodes 0-indexed: source (node 0, uplink 0) sends
	// to node 0 in slot 0 (wavelength A = self) and node 1 in slot 1.
	if d := g.Dst(0, 0, 0); d != 0 {
		t.Errorf("Dst(0,0,0) = %d, want 0 (self slot)", d)
	}
	if d := g.Dst(0, 0, 1); d != 1 {
		t.Errorf("Dst(0,0,1) = %d, want 1", d)
	}
	if d := g.Dst(0, 1, 0); d != 2 {
		t.Errorf("Dst(0,1,0) = %d, want 2", d)
	}
}

func TestGroupedPaperScale(t *testing.T) {
	// 128 racks, 16-port gratings: 8 uplinks, 16-slot epoch — with 100 ns
	// slots that is the paper's 1.6 us epoch.
	g, err := NewGrouped(128, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.Uplinks() != 8 || g.SlotsPerEpoch() != 16 {
		t.Fatalf("uplinks/slots = %d/%d, want 8/16", g.Uplinks(), g.SlotsPerEpoch())
	}
	if err := CheckContentionFree(g); err != nil {
		t.Error(err)
	}
	if err := CheckUniformCoverage(g); err != nil {
		t.Error(err)
	}
}

func TestGroupedProperties(t *testing.T) {
	f := func(groupsRaw, portsRaw, multRaw uint8) bool {
		groups := int(groupsRaw%5) + 1
		ports := int(portsRaw%7) + 1
		mult := int(multRaw%3) + 1
		nodes := groups * ports
		if nodes < 2 {
			return true
		}
		g, err := NewGrouped(nodes, ports, mult)
		if err != nil {
			return false
		}
		return CheckContentionFree(g) == nil && CheckUniformCoverage(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestGroupedWavelengthLaserSharing(t *testing.T) {
	// §4.5: load-balanced routing lets all transceivers on a node use the
	// same wavelength at any timeslot, enabling laser sharing. In the
	// grouped schedule the wavelength depends only on (slot, plane).
	g, err := NewGrouped(64, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for slot := 0; slot < g.SlotsPerEpoch(); slot++ {
		for plane := 0; plane < 2; plane++ {
			var want optics.Wavelength = -1
			for node := 0; node < 64; node++ {
				for u := plane * 8; u < (plane+1)*8; u++ {
					w := g.Wavelength(node, u, slot)
					if want == -1 {
						want = w
					}
					if w != want {
						t.Fatalf("slot %d plane %d: node %d uplink %d uses wavelength %d, others %d",
							slot, plane, node, u, w, want)
					}
				}
			}
		}
	}
}

func TestGroupedWavelengthMatchesAWGR(t *testing.T) {
	// The wavelength assignment must be consistent with physical cyclic
	// AWGR routing: if node i (input port i mod G) uses wavelength w, the
	// light must exit on output port dst mod G.
	g, err := NewGrouped(32, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	awgr := optics.NewAWGR(8)
	for node := 0; node < 32; node++ {
		for u := 0; u < g.Uplinks(); u++ {
			for s := 0; s < g.SlotsPerEpoch(); s++ {
				w := g.Wavelength(node, u, s)
				dst := g.Dst(node, u, s)
				if got := awgr.Route(node%8, w); got != dst%8 {
					t.Fatalf("node %d uplink %d slot %d: AWGR routes to port %d, schedule says %d",
						node, u, s, got, dst%8)
				}
			}
		}
	}
}

func TestRotorBasics(t *testing.T) {
	r, err := NewRotor(128, 12) // the paper's 1.5x provisioning
	if err != nil {
		t.Fatal(err)
	}
	if r.SlotsPerEpoch() != 32 {
		t.Errorf("epoch = %d slots, want 32", r.SlotsPerEpoch())
	}
	if r.ConnectionsPerEpoch() != 3 {
		t.Errorf("k = %d, want 3", r.ConnectionsPerEpoch())
	}
	if err := CheckContentionFree(r); err != nil {
		t.Error(err)
	}
	if err := CheckUniformCoverage(r); err != nil {
		t.Error(err)
	}
}

func TestRotorProperties(t *testing.T) {
	f := func(nRaw, uRaw uint8) bool {
		n := int(nRaw%60) + 2
		u := int(uRaw%10) + 1
		r, err := NewRotor(n, u)
		if err != nil {
			return false
		}
		return CheckContentionFree(r) == nil && CheckUniformCoverage(r) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestRotorEpochMinimal(t *testing.T) {
	// U divides N: epoch N/U... no — epoch is N/gcd(N,U).
	r, _ := NewRotor(128, 8)
	if r.SlotsPerEpoch() != 16 {
		t.Errorf("epoch = %d, want 16", r.SlotsPerEpoch())
	}
	if r.ConnectionsPerEpoch() != 1 {
		t.Errorf("k = %d, want 1", r.ConnectionsPerEpoch())
	}
}

func TestDegraded(t *testing.T) {
	base, _ := NewGrouped(16, 4, 1)
	d, err := NewDegraded(base, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if !d.failed[3] || d.failed[2] {
		t.Error("failure flags wrong")
	}
	// Slots to/from node 3 are -1; the rest intact and contention-free.
	wasted, used := 0, 0
	for s := 0; s < d.SlotsPerEpoch(); s++ {
		for u := 0; u < d.Uplinks(); u++ {
			for n := 0; n < 16; n++ {
				dst := d.Dst(n, u, s)
				if dst == 3 {
					t.Fatalf("schedule still targets failed node")
				}
				if dst < 0 {
					wasted++
				} else {
					used++
				}
			}
		}
	}
	if err := CheckContentionFree(d); err != nil {
		t.Error(err)
	}
	// §4.5: failure of 1 of N nodes costs each survivor 1/N of bandwidth.
	// Of the 16 nodes x 4 uplinks x 4 slots = 256 slot-connections per
	// epoch, node 3's own 16 are silenced and the 15 inbound from others
	// are wasted.
	if wasted != 16+15 {
		t.Errorf("wasted = %d, want 31", wasted)
	}
}

func TestDegradedRejectsBadNode(t *testing.T) {
	base, _ := NewGrouped(16, 4, 1)
	if _, err := NewDegraded(base, []int{16}); err == nil {
		t.Error("out-of-range failed node accepted")
	}
}

func TestCompact(t *testing.T) {
	base, _ := NewGrouped(16, 4, 1)
	r, live, err := Compact(base, []int{0, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes() != 14 || len(live) != 14 {
		t.Fatalf("compact nodes = %d, want 14", r.Nodes())
	}
	for _, n := range live {
		if n == 0 || n == 5 {
			t.Error("failed node in live set")
		}
	}
	if err := CheckContentionFree(r); err != nil {
		t.Error(err)
	}
	if err := CheckUniformCoverage(r); err != nil {
		t.Error(err)
	}
}

func TestCompactAllFailed(t *testing.T) {
	base, _ := NewGrouped(4, 2, 1)
	if _, _, err := Compact(base, []int{0, 1, 2}); err == nil {
		t.Error("compacting to <2 nodes should fail")
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewGrouped(1, 1, 1); err == nil {
		t.Error("1-node schedule accepted")
	}
	if _, err := NewGrouped(10, 4, 1); err == nil {
		t.Error("non-divisible groups accepted")
	}
	if _, err := NewGrouped(4, 2, 0); err == nil {
		t.Error("zero multiplicity accepted")
	}
	if _, err := NewRotor(1, 1); err == nil {
		t.Error("1-node rotor accepted")
	}
	if _, err := NewRotor(4, 0); err == nil {
		t.Error("0-uplink rotor accepted")
	}
	if _, err := New(10, 4, 3); err == nil {
		t.Error("non-divisible groups accepted by New")
	}
	if _, err := New(8, 0, 2); err == nil {
		t.Error("zero grating ports accepted by New")
	}
}

func TestGroupedMultiplicityStagger(t *testing.T) {
	// With 2 planes the two connections of a pair land half an epoch
	// apart, halving the worst-case wait.
	g, _ := NewGrouped(16, 8, 2)
	// Pair (0, 1): plane 0 connects at slot 1 (0+s ≡ 1 mod 8), plane 1 at
	// slot (1 - 4) mod 8 = 5.
	var slots []int
	for s := 0; s < 8; s++ {
		for u := 0; u < g.Uplinks(); u++ {
			if g.Dst(0, u, s) == 1 {
				slots = append(slots, s)
			}
		}
	}
	if len(slots) != 2 {
		t.Fatalf("pair connected %d times, want 2", len(slots))
	}
	gap := slots[1] - slots[0]
	if gap != 4 {
		t.Errorf("plane connections %v, want 4 slots apart", slots)
	}
}

func TestCheckPanics(t *testing.T) {
	g, _ := NewGrouped(8, 4, 1)
	for name, f := range map[string]func(){
		"node":     func() { g.Dst(-1, 0, 0) },
		"uplink":   func() { g.Dst(0, 99, 0) },
		"slot":     func() { g.Dst(0, 0, 99) },
		"rotorIdx": func() { r, _ := NewRotor(8, 2); r.Dst(8, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s out of range did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCompactEpochTrade(t *testing.T) {
	// Compacting 64 nodes with 8 uplinks to 63 would give a 63-slot
	// rotor epoch; the trade drops to 7 uplinks and a 9-slot epoch.
	base, _ := NewGrouped(64, 8, 1)
	r, live, err := Compact(base, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 63 {
		t.Fatalf("live = %d", len(live))
	}
	if r.Uplinks() != 7 || r.SlotsPerEpoch() != 9 {
		t.Errorf("compact picked %d uplinks / %d-slot epoch, want 7/9",
			r.Uplinks(), r.SlotsPerEpoch())
	}
	// Compacting to 60 keeps all 8 uplinks (E=15 is acceptable).
	r2, _, err := Compact(base, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Uplinks() != 8 {
		t.Errorf("compact dropped uplinks unnecessarily: %d", r2.Uplinks())
	}
	if err := CheckContentionFree(r); err != nil {
		t.Error(err)
	}
	if err := CheckUniformCoverage(r2); err != nil {
		t.Error(err)
	}
}

func TestDegradedMultipleFailures(t *testing.T) {
	// Several simultaneous failures on both schedule families: every slot
	// touching any failed node is silenced, the rest stay contention-free.
	bases := map[string]Schedule{}
	if g, err := NewGrouped(16, 4, 1); err == nil {
		bases["grouped"] = g
	} else {
		t.Fatal(err)
	}
	if r, err := NewRotor(16, 3); err == nil {
		bases["rotor"] = r
	} else {
		t.Fatal(err)
	}
	failed := []int{1, 7, 12}
	for name, base := range bases {
		d, err := NewDegraded(base, failed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range failed {
			if !d.failed[f] {
				t.Errorf("%s: node %d not flagged failed", name, f)
			}
		}
		wasted := 0
		for s := 0; s < d.SlotsPerEpoch(); s++ {
			for u := 0; u < d.Uplinks(); u++ {
				for n := 0; n < 16; n++ {
					dst := d.Dst(n, u, s)
					for _, f := range failed {
						if dst == f {
							t.Fatalf("%s: slot (%d,%d,%d) still targets failed node %d", name, n, u, s, f)
						}
					}
					if dst < 0 {
						wasted++
					}
				}
			}
		}
		// A wasted slot has a failed source or a failed destination. The 3
		// failed sources lose all uplinks × slots; each of the 13 surviving
		// sources additionally wastes its k connections to each of the 3
		// failed destinations.
		k := base.ConnectionsPerEpoch()
		wantWasted := 3*base.Uplinks()*base.SlotsPerEpoch() + 13*3*k
		if wasted != wantWasted {
			t.Errorf("%s: wasted = %d, want %d", name, wasted, wantWasted)
		}
		if err := CheckContentionFree(d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestCompactMultipleFailures(t *testing.T) {
	// Compacting around several simultaneous failures, from both a grouped
	// and a rotor base: the live mapping skips every failed node and the
	// rebuilt rotor keeps the uniform-coverage and contention-free
	// invariants.
	type tc struct {
		name   string
		base   func() (Schedule, error)
		failed []int
	}
	cases := []tc{
		{"grouped-3fail", func() (Schedule, error) { return NewGrouped(16, 4, 1) }, []int{0, 5, 9}},
		{"grouped-adjacent", func() (Schedule, error) { return NewGrouped(16, 4, 1) }, []int{6, 7, 8}},
		{"rotor-3fail", func() (Schedule, error) { return NewRotor(16, 3) }, []int{2, 3, 11}},
		{"rotor-half", func() (Schedule, error) { return NewRotor(8, 2) }, []int{0, 2, 4, 6}},
		{"grouped-paper", func() (Schedule, error) { return NewGrouped(64, 8, 1) }, []int{1, 17, 33, 49, 63}},
	}
	for _, c := range cases {
		base, err := c.base()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		r, live, err := Compact(base, c.failed)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantLive := base.Nodes() - len(c.failed)
		if r.Nodes() != wantLive || len(live) != wantLive {
			t.Fatalf("%s: compact nodes = %d, want %d", c.name, r.Nodes(), wantLive)
		}
		seen := map[int]bool{}
		for i, n := range live {
			if i > 0 && live[i-1] >= n {
				t.Errorf("%s: live mapping not strictly increasing: %v", c.name, live)
			}
			seen[n] = true
			for _, f := range c.failed {
				if n == f {
					t.Errorf("%s: failed node %d in live set", c.name, f)
				}
			}
		}
		if len(seen) != wantLive {
			t.Errorf("%s: duplicate nodes in live mapping %v", c.name, live)
		}
		if r.Uplinks() > base.Uplinks() {
			t.Errorf("%s: compaction invented uplinks (%d > %d)", c.name, r.Uplinks(), base.Uplinks())
		}
		if err := CheckContentionFree(r); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if err := CheckUniformCoverage(r); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestCompactDeterministic(t *testing.T) {
	// Two independent compactions over the same survivor set must agree
	// exactly — the wire fabric relies on "agreement on when + the same
	// deterministic computation = agreement on what".
	base, _ := NewRotor(12, 3)
	failed := []int{4, 10}
	a, liveA, err := Compact(base, failed)
	if err != nil {
		t.Fatal(err)
	}
	b, liveB, err := Compact(base, []int{10, 4}) // order must not matter
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes() != b.Nodes() || a.Uplinks() != b.Uplinks() || a.SlotsPerEpoch() != b.SlotsPerEpoch() {
		t.Fatalf("compactions disagree on shape: %d/%d/%d vs %d/%d/%d",
			a.Nodes(), a.Uplinks(), a.SlotsPerEpoch(), b.Nodes(), b.Uplinks(), b.SlotsPerEpoch())
	}
	for i := range liveA {
		if liveA[i] != liveB[i] {
			t.Fatalf("live mappings disagree: %v vs %v", liveA, liveB)
		}
	}
	for s := 0; s < a.SlotsPerEpoch(); s++ {
		for u := 0; u < a.Uplinks(); u++ {
			for n := 0; n < a.Nodes(); n++ {
				if a.Dst(n, u, s) != b.Dst(n, u, s) {
					t.Fatalf("schedules disagree at (%d,%d,%d)", n, u, s)
				}
			}
		}
	}
}

// TestCompactMatchesGroupedAtFullMembership pins the identity the wire
// fabric's membership machinery relies on: compacting a one-uplink
// grouped schedule over zero failures yields a rotor with the identical
// destination sequence, so "always schedule via Compact over the
// inactive set" changes nothing for a full fabric.
func TestCompactMatchesGroupedAtFullMembership(t *testing.T) {
	for _, n := range []int{2, 4, 6, 16} {
		g, err := NewGrouped(n, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		r, live, err := Compact(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != n || r.SlotsPerEpoch() != g.SlotsPerEpoch() {
			t.Fatalf("n=%d: shape changed: %d live, %d slots", n, len(live), r.SlotsPerEpoch())
		}
		for node := 0; node < n; node++ {
			for s := 0; s < n; s++ {
				if r.Dst(node, 0, s) != g.Dst(node, 0, s) {
					t.Fatalf("n=%d: Dst(%d,0,%d): rotor %d vs grouped %d",
						n, node, s, r.Dst(node, 0, s), g.Dst(node, 0, s))
				}
			}
		}
	}
}

func TestCompactRejectsBadNodes(t *testing.T) {
	base, _ := NewGrouped(8, 4, 1)
	if _, _, err := Compact(base, []int{-1}); err == nil {
		t.Error("negative failed node accepted")
	}
}

func TestDegradedPreservesMetadata(t *testing.T) {
	base, _ := NewGrouped(8, 4, 1)
	d, _ := NewDegraded(base, []int{1})
	if d.Nodes() != 8 || d.Uplinks() != base.Uplinks() ||
		d.SlotsPerEpoch() != base.SlotsPerEpoch() ||
		d.ConnectionsPerEpoch() != base.ConnectionsPerEpoch() {
		t.Error("degraded wrapper changed schedule metadata")
	}
	if d.RxPort(0, 1) != base.RxPort(0, 1) {
		t.Error("degraded wrapper changed rx ports")
	}
}
