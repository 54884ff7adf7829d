package wire

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/telemetry"
)

func TestExpansionGrowsFabric(t *testing.T) {
	// Live expansion: a 6-port fabric starts with 4 founders; nodes 4 and
	// 5 attach at epoch 6 and are admitted at the agreed switch epoch 8.
	// Every founder must flip to the 6-wide schedule on the same epoch,
	// the joiners must carry full traffic from their first epoch, and the
	// planned operation must lose nothing.
	const total, expandAt, epochs = 6, 6, 20
	const switchEpoch = expandAt + 2
	plan := &fault.Plan{Seed: 11, Events: []fault.Event{
		{Kind: fault.Expand, Node: 4, Epoch: expandAt},
		{Kind: fault.Expand, Node: 5, Epoch: expandAt},
	}}
	fs, err := RunPrototypeCfg(faultCfg(total, epochs, plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 0 {
		t.Fatalf("expansion produced failure records: %+v", fs.Failures)
	}
	if fs.Dropped != 0 || fs.GreyDropped != 0 {
		t.Fatalf("planned expansion lost frames: dropped %d, grey %d", fs.Dropped, fs.GreyDropped)
	}
	if fs.Survivors != total {
		t.Errorf("survivors = %d, want %d", fs.Survivors, total)
	}
	if !fs.ErrFree || fs.BER != 0 {
		t.Errorf("expansion run not error-free: BER %v", fs.BER)
	}

	founderSent := 4*switchEpoch + total*(epochs-switchEpoch)
	joinerSent := total * (epochs - switchEpoch)
	wantChanges := []MemberChange{
		{Epoch: switchEpoch, Node: 4, Kind: "join"},
		{Epoch: switchEpoch, Node: 5, Kind: "join"},
	}
	for _, n := range fs.Nodes {
		if n.Misrouted != 0 {
			t.Errorf("node %d misrouted %d cells", n.Node, n.Misrouted)
		}
		if n.Node >= 4 {
			if n.JoinedAt != switchEpoch {
				t.Errorf("joiner %d admitted at %d, want %d", n.Node, n.JoinedAt, switchEpoch)
			}
			if n.Sent != joinerSent || n.Received != joinerSent {
				t.Errorf("joiner %d sent/received %d/%d, want %d/%d",
					n.Node, n.Sent, n.Received, joinerSent, joinerSent)
			}
			continue
		}
		if n.JoinedAt != 0 || n.Rejoins != 0 || n.Drained {
			t.Errorf("founder %d has lifecycle stats %+v", n.Node, n)
		}
		if n.Sent != founderSent || n.Received != founderSent {
			t.Errorf("founder %d sent/received %d/%d, want %d/%d",
				n.Node, n.Sent, n.Received, founderSent, founderSent)
		}
		// No survivor desync: every founder applied the same membership
		// switches at the same epochs.
		if len(n.Changes) != len(wantChanges) {
			t.Fatalf("founder %d changes = %+v, want %+v", n.Node, n.Changes, wantChanges)
		}
		for i, c := range n.Changes {
			if c != wantChanges[i] {
				t.Errorf("founder %d change %d = %+v, want %+v", n.Node, i, c, wantChanges[i])
			}
		}
	}
}

func TestPlannedDrainZeroLoss(t *testing.T) {
	// Cooperative drain: node 2 announces at epoch 8, the fabric agrees to
	// stop scheduling it from epoch 10, and it detaches only after hearing
	// everyone's epoch 9 — so every cell ever addressed to it arrived.
	// Zero loss on both sides of the wire, and /healthz stays green: a
	// planned operation is not an incident.
	const nodes, victim, drainAt, epochs = 4, 2, 8, 20
	const leaveEpoch = drainAt + 2
	plan := &fault.Plan{Seed: 21, Events: []fault.Event{
		{Kind: fault.Drain, Node: victim, Epoch: drainAt},
	}}
	reg := telemetry.NewRegistry()
	h := telemetry.NewHealth(64)
	cfg := faultCfg(nodes, epochs, plan)
	cfg.Telemetry = reg
	cfg.Health = h
	fs, err := RunPrototypeCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 0 {
		t.Fatalf("planned drain produced failure records: %+v", fs.Failures)
	}
	if fs.Dropped != 0 || fs.GreyDropped != 0 {
		t.Fatalf("planned drain lost frames: dropped %d, grey %d", fs.Dropped, fs.GreyDropped)
	}
	if h.SawFlap() {
		t.Error("health flapped during a planned drain; planned operations must stay green")
	}
	if fs.Survivors != nodes {
		t.Errorf("survivors = %d, want %d (a drained node finished cleanly)", fs.Survivors, nodes)
	}

	drainedSent := nodes * leaveEpoch
	remainSent := nodes*leaveEpoch + (nodes-1)*(epochs-leaveEpoch)
	for _, n := range fs.Nodes {
		if n.Misrouted != 0 {
			t.Errorf("node %d misrouted %d cells", n.Node, n.Misrouted)
		}
		if n.Node == victim {
			if !n.Drained || n.Crashed || n.Ejected {
				t.Errorf("victim flags wrong: %+v", n)
			}
			// Zero cell loss, asserted exactly: the victim was addressed
			// nodes cells per epoch for leaveEpoch epochs, and every one
			// arrived before it detached.
			if n.Sent != drainedSent || n.Received != drainedSent {
				t.Errorf("victim sent/received %d/%d, want %d/%d",
					n.Sent, n.Received, drainedSent, drainedSent)
			}
			continue
		}
		if n.Sent != remainSent || n.Received != remainSent {
			t.Errorf("node %d sent/received %d/%d, want %d/%d",
				n.Node, n.Sent, n.Received, remainSent, remainSent)
		}
		if len(n.Changes) != 1 || n.Changes[0] != (MemberChange{Epoch: leaveEpoch, Node: victim, Kind: "leave"}) {
			t.Errorf("node %d changes = %+v, want one leave of %d at %d",
				n.Node, n.Changes, victim, leaveEpoch)
		}
	}
}

func TestDrainReaddCycle(t *testing.T) {
	// Rolling maintenance: node 1 drains at epoch 6 (out at 8), is re-added
	// at epoch 12 (in at 14), and carries full traffic again to the end.
	// The whole cycle is planned: zero loss, no failure records, and the
	// survivors' change timelines are identical.
	const nodes, victim, drainAt, readdAt, epochs = 4, 1, 6, 12, 24
	const leaveEpoch, joinEpoch = drainAt + 2, readdAt + 2
	plan := &fault.Plan{Seed: 31, Events: []fault.Event{
		{Kind: fault.Drain, Node: victim, Epoch: drainAt},
		{Kind: fault.Readd, Node: victim, Epoch: readdAt},
	}}
	h := telemetry.NewHealth(64)
	cfg := faultCfg(nodes, epochs, plan)
	cfg.Telemetry = telemetry.NewRegistry()
	cfg.Health = h
	fs, err := RunPrototypeCfg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 0 {
		t.Fatalf("drain/re-add cycle produced failure records: %+v", fs.Failures)
	}
	if fs.Dropped != 0 || fs.GreyDropped != 0 {
		t.Fatalf("drain/re-add cycle lost frames: dropped %d, grey %d", fs.Dropped, fs.GreyDropped)
	}
	if h.SawFlap() {
		t.Error("health flapped during a planned drain/re-add cycle")
	}

	cycledTotal := nodes*leaveEpoch + nodes*(epochs-joinEpoch)
	remainTotal := nodes*leaveEpoch + (nodes-1)*(joinEpoch-leaveEpoch) + nodes*(epochs-joinEpoch)
	wantChanges := []MemberChange{
		{Epoch: leaveEpoch, Node: victim, Kind: "leave"},
		{Epoch: joinEpoch, Node: victim, Kind: "join"},
	}
	for _, n := range fs.Nodes {
		if n.Node == victim {
			if !n.Drained || n.Rejoins != 1 || n.Crashed || n.Ejected {
				t.Errorf("victim lifecycle flags wrong: %+v", n)
			}
			if n.Sent != cycledTotal || n.Received != cycledTotal {
				t.Errorf("victim sent/received %d/%d, want %d/%d",
					n.Sent, n.Received, cycledTotal, cycledTotal)
			}
			continue
		}
		if n.Sent != remainTotal || n.Received != remainTotal {
			t.Errorf("node %d sent/received %d/%d, want %d/%d",
				n.Node, n.Sent, n.Received, remainTotal, remainTotal)
		}
		if len(n.Changes) != len(wantChanges) {
			t.Fatalf("node %d changes = %+v, want %+v", n.Node, n.Changes, wantChanges)
		}
		for i, c := range n.Changes {
			if c != wantChanges[i] {
				t.Errorf("node %d change %d = %+v, want %+v", n.Node, i, c, wantChanges[i])
			}
		}
	}
}

func TestCrashRestartRejoins(t *testing.T) {
	// A crash followed by a scripted restart: node 1 dies at epoch 6, is
	// compacted out at 11 (threshold 3 + flood + align), restarts at 14,
	// and is re-admitted at 16 — the rolling-restart story end to end.
	const nodes, victim, crashAt, restartAt, epochs = 4, 1, 6, 14, 28
	const failEpoch = crashAt + 3 + 2 // suspect at gate 9, switch at 11
	const joinEpoch = restartAt + 2
	plan := &fault.Plan{Seed: 41, Events: []fault.Event{
		{Kind: fault.Crash, Node: victim, Epoch: crashAt},
		{Kind: fault.Restart, Node: victim, Epoch: restartAt},
	}}
	fs, err := RunPrototypeCfg(faultCfg(nodes, epochs, plan))
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Failures) != 1 || fs.Failures[0].Peer != victim {
		t.Fatalf("failures = %+v, want exactly node %d", fs.Failures, victim)
	}
	if fs.SwitchEpoch != failEpoch {
		t.Errorf("failure switch epoch = %d, want %d", fs.SwitchEpoch, failEpoch)
	}

	wantChanges := []MemberChange{
		{Epoch: failEpoch, Node: victim, Kind: "fail"},
		{Epoch: joinEpoch, Node: victim, Kind: "join"},
	}
	survReceived := nodes*crashAt + (nodes-1)*(joinEpoch-crashAt) + nodes*(epochs-joinEpoch)
	for _, n := range fs.Nodes {
		if n.Node == victim {
			if !n.Crashed || n.Rejoins != 1 || n.Ejected {
				t.Errorf("victim lifecycle flags wrong: %+v", n)
			}
			// Transmits epochs [0, crashAt) then [joinEpoch, epochs).
			if want := nodes*crashAt + nodes*(epochs-joinEpoch); n.Sent != want {
				t.Errorf("victim sent %d, want %d", n.Sent, want)
			}
			continue
		}
		if n.Received != survReceived {
			t.Errorf("survivor %d received %d, want %d", n.Node, n.Received, survReceived)
		}
		if len(n.Changes) != len(wantChanges) {
			t.Fatalf("survivor %d changes = %+v, want %+v", n.Node, n.Changes, wantChanges)
		}
		for i, c := range n.Changes {
			if c != wantChanges[i] {
				t.Errorf("survivor %d change %d = %+v, want %+v", n.Node, i, c, wantChanges[i])
			}
		}
	}
}

func TestLifecycleReplayDeterminism(t *testing.T) {
	// A full lifecycle plan — expansion, a drain/re-add cycle, and a
	// degrade window — replays byte-identically at a fixed seed: every
	// node's counters, bit errors, and membership timeline, and the
	// emulator's frame count, are equal across runs.
	plan := &fault.Plan{Seed: 7, Events: []fault.Event{
		{Kind: fault.Expand, Node: 4, Epoch: 5},
		{Kind: fault.Expand, Node: 5, Epoch: 5},
		{Kind: fault.Drain, Node: 1, Epoch: 12},
		{Kind: fault.Readd, Node: 1, Epoch: 20},
		{Kind: fault.Degrade, Src: 2, Epoch: 3, Until: 10, FlipProb: 2e-3},
	}}
	run := func() *FaultStats {
		fs, err := RunPrototypeCfg(faultCfg(6, 32, plan))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	a, b := run(), run()
	if a.BER == 0 {
		t.Error("degrade window injected no errors")
	}
	if a.Routed != b.Routed || a.Cells != b.Cells || a.BER != b.BER ||
		a.Dropped != b.Dropped || a.GreyDropped != b.GreyDropped {
		t.Errorf("aggregates differ:\n  %+v\n  %+v", a.Stats, b.Stats)
	}
	if a.Dropped != 0 {
		t.Errorf("planned lifecycle plan dropped %d frames", a.Dropped)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Sent != y.Sent || x.Received != y.Received || x.BitErrors != y.BitErrors ||
			x.Bits != y.Bits || x.Drained != y.Drained || x.Rejoins != y.Rejoins ||
			x.JoinedAt != y.JoinedAt || len(x.Changes) != len(y.Changes) {
			t.Errorf("node %d stats differ:\n  %+v\n  %+v", i, x, y)
			continue
		}
		for j := range x.Changes {
			if x.Changes[j] != y.Changes[j] {
				t.Errorf("node %d change %d differs: %+v vs %+v", i, j, x.Changes[j], y.Changes[j])
			}
		}
	}
}

func TestLifecycleValidationAtRunNode(t *testing.T) {
	// Lifecycle plans whose switch epochs cannot land inside the run are
	// rejected up front, as is a fabric whose founders would number < 2.
	tooLate := &fault.Plan{Events: []fault.Event{{Kind: fault.Drain, Node: 1, Epoch: 9}}}
	if _, err := RunNode(NodeConfig{ID: 0, Nodes: 4, Epochs: 10, PayloadBytes: 8,
		Addr: "127.0.0.1:1", Plan: tooLate}); err == nil {
		t.Error("drain switching past the horizon accepted")
	}
	allJoin := &fault.Plan{Events: []fault.Event{
		{Kind: fault.Expand, Node: 1, Epoch: 2},
		{Kind: fault.Expand, Node: 2, Epoch: 2},
		{Kind: fault.Expand, Node: 3, Epoch: 2},
	}}
	if _, err := RunNode(NodeConfig{ID: 0, Nodes: 4, Epochs: 20, PayloadBytes: 8,
		Addr: "127.0.0.1:1", Plan: allJoin}); err == nil {
		t.Error("fabric with a single founder accepted")
	}
}

func TestEmulatorCloseAccountsParked(t *testing.T) {
	// Frames parked for a port that never arrives are accounted as dropped
	// by Close: routed frames always land in delivered, dropped, or
	// grey-dropped, even on an abortive shutdown.
	em, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- em.Serve() }()

	conn, err := net.Dial("tcp", em.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := EncodeHandshake(0, 0)
	conn.Write(h[:])
	var reply [hsReplyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != HsOK {
		t.Fatalf("registration failed: %v %v", err, reply)
	}

	// Three frames for port 1, which never registers: they park.
	const parked = 3
	c := cell.Cell{Kind: cell.KindData, Src: 0, Dst: 1, Payload: []byte{1, 2, 3, 4}}
	for i := 0; i < parked; i++ {
		if _, err := conn.Write(appendFrame(nil, 1, &c)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for em.Routed() < parked {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames routed", em.Routed(), parked)
		}
		time.Sleep(time.Millisecond)
	}

	em.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	if got := em.Dropped(); got != parked {
		t.Errorf("dropped = %d after Close, want the %d parked frames", got, parked)
	}
}

func TestEmulatorCloseStopsGoroutines(t *testing.T) {
	// Close leaves no emulator goroutine behind: Serve's workers unwind
	// once the listener and connections are closed.
	before := runtime.NumGoroutine()

	em, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- em.Serve() }()

	conn, err := net.Dial("tcp", em.Addr())
	if err != nil {
		t.Fatal(err)
	}
	h := EncodeHandshake(0, 0)
	conn.Write(h[:])
	var reply [hsReplyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != HsOK {
		t.Fatalf("registration failed: %v %v", err, reply)
	}

	em.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // give netpoll deregistration a nudge
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after Close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
