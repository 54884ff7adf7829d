package wire

import (
	"io"
	"net"
	"testing"
	"time"

	"sirius/internal/fault"
	"sirius/internal/health"
	"sirius/internal/rng"
)

// faultCfg is the shared fast-timing configuration for fault tests: small
// suspect timeouts so the silence epochs cost milliseconds, not the 2s
// production default. Under the race detector the hot path runs several
// times slower, and a too-tight gate deadline can declare the victim
// silent one epoch early (its final frames are still in flight when the
// gate fires) — so the timeout is scaled up. Every assertion downstream
// is epoch-indexed, not time-indexed, so only wall time changes.
func faultCfg(nodes, epochs int, plan *fault.Plan) PrototypeConfig {
	suspect, overall := 250*time.Millisecond, 8*time.Second
	if raceEnabled {
		suspect, overall = 750*time.Millisecond, 20*time.Second
	}
	return PrototypeConfig{
		Nodes:          nodes,
		Epochs:         epochs,
		PayloadBytes:   32,
		Plan:           plan,
		SuspectTimeout: suspect,
		Timeout:        overall,
	}
}

func TestNodeCrashDetectedAndCompacted(t *testing.T) {
	// The acceptance experiment: kill node 2 at epoch 8 of 30. The
	// survivors must suspect it after missThreshold silent epochs, confirm
	// fabric-wide one epoch later, switch to the compacted schedule at the
	// agreed boundary, and finish error-free — with no absolute deadline
	// doing the work.
	const nodes, epochs, victim, killAt = 4, 30, 2, 8
	start := time.Now()
	fs, err := RunPrototypeCfg(faultCfg(nodes, epochs, fault.KillPlan(victim, killAt, 7)))
	if err != nil {
		t.Fatal(err)
	}
	wallBudget := 20 * time.Second
	if raceEnabled {
		wallBudget = 40 * time.Second // larger suspect gates + instrumentation overhead
	}
	if wall := time.Since(start); wall > wallBudget {
		t.Errorf("crash run took %v; graceful degradation should finish in seconds", wall)
	}

	if fs.Survivors != nodes-1 {
		t.Fatalf("survivors = %d, want %d", fs.Survivors, nodes-1)
	}
	if len(fs.Failures) != 1 || fs.Failures[0].Peer != victim {
		t.Fatalf("failures = %+v, want exactly node %d", fs.Failures, victim)
	}
	if fs.KillEpoch != killAt {
		t.Errorf("inferred kill epoch = %d, want %d", fs.KillEpoch, killAt)
	}
	// Silence epochs killAt..killAt+2 cross the threshold at the gate of
	// killAt+3; the flood confirms at killAt+4; the switch at killAt+5.
	if fs.SuspectEpoch != killAt+3 || fs.ConfirmEpoch != killAt+4 || fs.SwitchEpoch != killAt+5 {
		t.Errorf("suspect/confirm/switch = %d/%d/%d, want %d/%d/%d",
			fs.SuspectEpoch, fs.ConfirmEpoch, fs.SwitchEpoch, killAt+3, killAt+4, killAt+5)
	}

	// The live detection latency must match the offline health.Detector's
	// DetectionLatency for the same threshold.
	d, err := health.New(health.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; !d.Confirmed(victim); e++ {
		d.Epoch(func(obs, peer int) bool { return peer != victim })
	}
	if fs.DetectEpochs != d.DetectionLatency(victim) {
		t.Errorf("live detection = %d epochs, offline model says %d",
			fs.DetectEpochs, d.DetectionLatency(victim))
	}

	// Post-FEC error-free among survivors on a clean channel.
	if !fs.ErrFree || fs.BER != 0 {
		t.Errorf("survivors not error-free: BER %v", fs.BER)
	}
	// Goodput: degraded window wastes the victim's slot (3 of 4 slots
	// carry data); the compacted schedule regains full utilization.
	if fs.DegradedGoodput < 0.70 || fs.DegradedGoodput > 0.80 {
		t.Errorf("degraded goodput = %v, want ~0.75", fs.DegradedGoodput)
	}
	if fs.CompactedGoodput < 0.99 {
		t.Errorf("compacted goodput = %v, want ~1.0", fs.CompactedGoodput)
	}

	for _, n := range fs.Nodes {
		if n.Node == victim {
			if !n.Crashed {
				t.Errorf("victim not marked crashed: %+v", n)
			}
			continue
		}
		if n.Crashed || n.Ejected {
			t.Errorf("survivor %d marked dead: %+v", n.Node, n)
		}
		if n.Misrouted != 0 {
			t.Errorf("survivor %d saw %d misrouted cells", n.Node, n.Misrouted)
		}
		// Epochs [0,killAt): 4 cells/epoch. [killAt, switch): 3 from the
		// surviving sources on the old schedule. [switch, epochs): 3 on
		// the compacted schedule.
		want := 4*killAt + 3*(fs.SwitchEpoch-killAt) + 3*(epochs-fs.SwitchEpoch)
		if n.Received != want {
			t.Errorf("survivor %d received %d cells, want %d", n.Node, n.Received, want)
		}
	}
}

func TestCrashReplayDeterminism(t *testing.T) {
	// The same seeded plan replays identically: survivor statistics and
	// the failure record are byte-equal across runs, and the crashed node
	// counts exactly the cells of the epochs it was a member for.
	const nodes, victim, crashAt = 4, 1, 5
	plan := fault.KillPlan(victim, crashAt, 99)
	run := func() *FaultStats {
		fs, err := RunPrototypeCfg(faultCfg(nodes, 20, plan))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	for _, fs := range []*FaultStats{a, b} {
		if got, want := fs.Nodes[victim].Received, nodes*crashAt; got != want {
			t.Errorf("crashed node received %d cells, want %d (epochs 0-%d)", got, want, crashAt-1)
		}
	}
	if a.PlanHash != b.PlanHash || a.PlanHash == "none" {
		t.Errorf("plan hashes differ: %s vs %s", a.PlanHash, b.PlanHash)
	}
	if a.Routed != b.Routed || a.Cells != b.Cells || a.BER != b.BER {
		t.Errorf("aggregates differ: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Sent != y.Sent || x.Received != y.Received || x.BitErrors != y.BitErrors ||
			x.Crashed != y.Crashed || x.Ejected != y.Ejected || len(x.Failures) != len(y.Failures) {
			t.Errorf("node %d stats differ:\n  %+v\n  %+v", i, x, y)
		}
		for j := range x.Failures {
			if x.Failures[j] != y.Failures[j] {
				t.Errorf("node %d failure %d differs: %+v vs %+v", i, j, x.Failures[j], y.Failures[j])
			}
		}
	}
}

func TestDegradeReplayDeterminism(t *testing.T) {
	// Per-input-port RNG substreams make injected corruption a pure
	// function of (seed, frame history): two runs flip the same bits.
	plan := &fault.Plan{Seed: 1234, Events: []fault.Event{
		{Kind: fault.Degrade, Src: 1, Epoch: 3, Until: 9, FlipProb: 2e-3},
		{Kind: fault.Degrade, Src: 3, Epoch: 5, FlipProb: 5e-4},
	}}
	run := func() *FaultStats {
		fs, err := RunPrototypeCfg(faultCfg(4, 15, plan))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	if a.BER == 0 {
		t.Fatal("degrade plan injected no errors")
	}
	if a.BER != b.BER || a.Cells != b.Cells {
		t.Errorf("degrade replay differs: BER %v vs %v, cells %d vs %d",
			a.BER, b.BER, a.Cells, b.Cells)
	}
	for i := range a.Nodes {
		if a.Nodes[i].BitErrors != b.Nodes[i].BitErrors {
			t.Errorf("node %d bit errors differ: %d vs %d",
				i, a.Nodes[i].BitErrors, b.Nodes[i].BitErrors)
		}
	}
	if len(a.Failures) != 0 {
		t.Errorf("degradation alone must not eject anyone: %+v", a.Failures)
	}
}

func TestGreyFailureEjectsVictim(t *testing.T) {
	// Node 1 goes dark toward node 2 only (a grey failure): node 2 alone
	// observes the silence, suspects, and floods; everyone — including the
	// victim — learns, and the victim is compacted out at the agreed epoch.
	const nodes, epochs, victim, observer, darkAt = 4, 24, 1, 2, 6
	plan := &fault.Plan{Seed: 5, Events: []fault.Event{
		{Kind: fault.Grey, Src: victim, Dst: observer, Epoch: darkAt},
	}}
	fs, err := RunPrototypeCfg(faultCfg(nodes, epochs, plan))
	if err != nil {
		t.Fatal(err)
	}
	if fs.Survivors != nodes-1 {
		t.Fatalf("survivors = %d, want %d", fs.Survivors, nodes-1)
	}
	if len(fs.Failures) != 1 || fs.Failures[0].Peer != victim {
		t.Fatalf("failures = %+v, want node %d", fs.Failures, victim)
	}
	// Last heard by the observer: epoch darkAt-1. Gap crosses the
	// threshold at the gate of darkAt+3.
	if fs.SuspectEpoch != darkAt+3 {
		t.Errorf("suspect epoch = %d, want %d", fs.SuspectEpoch, darkAt+3)
	}
	var sawVictim bool
	for _, n := range fs.Nodes {
		if n.Node == victim {
			sawVictim = true
			if !n.Ejected {
				t.Errorf("grey victim not ejected: %+v", n)
			}
			if n.Crashed {
				t.Error("grey victim marked crashed")
			}
		}
	}
	if !sawVictim {
		t.Fatal("victim stats missing")
	}
	if !fs.ErrFree {
		t.Errorf("survivors not error-free: BER %v", fs.BER)
	}
}

func TestRestartFlapRecovers(t *testing.T) {
	// A scripted link flap: node 1 drops its connection at epoch 10 and
	// re-registers. Nobody suspects it, the emulator parks frames routed
	// to it while it is away, and the run completes with no failure record.
	const nodes, epochs, flapper, flapAt = 4, 25, 1, 10
	plan := &fault.Plan{Seed: 77, Events: []fault.Event{
		{Kind: fault.Flap, Node: flapper, Epoch: flapAt},
	}}
	fs, err := RunPrototypeCfg(faultCfg(nodes, epochs, plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 0 {
		t.Fatalf("a link flap must not be confirmed as a failure: %+v", fs.Failures)
	}
	if fs.Survivors != nodes {
		t.Errorf("survivors = %d, want all %d", fs.Survivors, nodes)
	}
	full := nodes * epochs
	for _, n := range fs.Nodes {
		if n.Node == flapper {
			if n.Reconnects != 1 {
				t.Errorf("flapper reconnects = %d, want 1", n.Reconnects)
			}
			// The flapper half-closes and re-registers only after reading
			// its old connection to EOF; everything routed to it while
			// away is parked and replayed, so nothing is lost.
			if n.Received != full {
				t.Errorf("flapper received %d, want %d", n.Received, full)
			}
			continue
		}
		if n.Received != full {
			t.Errorf("node %d received %d, want %d", n.Node, n.Received, full)
		}
		if n.Reconnects != 0 {
			t.Errorf("node %d reconnected %d times for someone else's flap", n.Node, n.Reconnects)
		}
	}
}

func TestStallDelaysButCompletes(t *testing.T) {
	// A stalled input slows wall time without changing the frame history:
	// the self-clocked gate rides it out and nobody is suspected.
	plan := &fault.Plan{Seed: 3, Events: []fault.Event{
		{Kind: fault.Stall, Src: 0, Epoch: 2, Until: 5, DelayMicros: 2000},
	}}
	fs, err := RunPrototypeCfg(faultCfg(4, 10, plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 0 {
		t.Errorf("stall misdiagnosed as failure: %+v", fs.Failures)
	}
	for _, n := range fs.Nodes {
		if n.Received != 40 {
			t.Errorf("node %d received %d, want 40", n.Node, n.Received)
		}
	}
}

func TestEmulatorSurvivesMaliciousClients(t *testing.T) {
	// Hostile clients connect with garbage, duplicate registrations and
	// immediate hangups around a real 2-node fabric, which must complete
	// untouched. Each refusal happens while the fabric cannot finish —
	// before node 0 starts, or between node 0's registration and node
	// 1's start — so the emulator is still accepting when it comes.
	em, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- em.Serve() }()

	// hostile sends handshake (nil: hang up at once) and checks that the
	// emulator refuses it with status want. Every read has a deadline,
	// so a connection the emulator keeps open cannot hang the test.
	hostile := func(handshake []byte, want uint8) {
		t.Helper()
		c, err := net.Dial("tcp", em.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if handshake == nil {
			return
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.Write(handshake); err != nil {
			t.Fatal(err)
		}
		reply, _ := io.ReadAll(c)
		if len(reply) == 0 || reply[0] != want {
			t.Fatalf("handshake % x: reply % x, want status %d", handshake, reply, want)
		}
	}
	// awaitRejected waits until the emulator has refused n connections.
	awaitRejected := func(n int64) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for em.Rejected() < n {
			if time.Now().After(deadline) {
				t.Fatalf("emulator refused %d connections, want %d", em.Rejected(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	badMagic := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	hostile(badMagic, HsBadMagic)
	hostile(nil, 0) // connect and hang up mid-handshake
	hostile(badMagic, HsBadMagic)
	awaitRejected(3)

	nodeErr := make(chan error, 2)
	stats := make([]*NodeStats, 2)
	startNode := func(id int) {
		go func() {
			st, err := RunNode(NodeConfig{
				ID: id, Addr: em.Addr(), Nodes: 2, Epochs: 40, PayloadBytes: 16,
				Timeout: 8 * time.Second, SuspectTimeout: time.Second,
			})
			stats[id] = st
			nodeErr <- err
		}()
	}
	startNode(0)
	// A routed frame means node 0 has registered; node 1 has not
	// started, so the fabric cannot finish while port 0 is duplicated.
	deadline := time.Now().Add(10 * time.Second)
	for em.Routed() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node 0 never registered")
		}
		time.Sleep(time.Millisecond)
	}
	dup := EncodeHandshake(0, 0)
	hostile(dup[:], HsDuplicate)
	hostile(dup[:], HsDuplicate)
	awaitRejected(5)
	startNode(1)

	for i := 0; i < 2; i++ {
		if err := <-nodeErr; err != nil {
			t.Fatalf("fabric node failed under hostile clients: %v", err)
		}
	}
	for id, st := range stats {
		if st.Received != 80 || st.Misrouted != 0 {
			t.Errorf("node %d: %+v, want 80 received", id, st)
		}
	}
	em.Close()
	if err := <-serveErr; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
	if got := em.Rejected(); got != 5 {
		t.Errorf("emulator refused %d connections, want the 5 hostile ones", got)
	}
}

func TestFaultPlanValidationAtRun(t *testing.T) {
	bad := &fault.Plan{Events: []fault.Event{{Kind: fault.Crash, Node: 9, Epoch: 1}}}
	if _, err := RunPrototypeCfg(faultCfg(4, 5, bad)); err == nil {
		t.Error("out-of-range crash target accepted")
	}
}

func TestCorruptPayloadGeometricMatchesBernoulli(t *testing.T) {
	// The geometric-skip sampler must reproduce the per-bit flip rate.
	r := rng.New(42)
	const p = 1e-3
	const bytes = 1 << 16
	buf := make([]byte, bytes)
	var flips int64
	for i := 0; i < 20; i++ {
		flips += corruptPayload(buf, p, r)
	}
	got := float64(flips) / float64(20*bytes*8)
	if got < p*0.9 || got > p*1.1 {
		t.Errorf("flip rate = %v, want ~%v", got, p)
	}
	if corruptPayload(buf, 0, r) != 0 {
		t.Error("zero probability flipped bits")
	}
	if corruptPayload(nil, 0.5, r) != 0 {
		t.Error("empty buffer flipped bits")
	}
}
