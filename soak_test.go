package sirius

// Long-running soak tests: skipped under -short, exercised by the full
// `go test ./...` run. They stress the simulator with mixed adversarial
// traffic for many epochs and check the global invariants survive.

import (
	"testing"
	"time"

	"sirius/internal/core"
	"sirius/internal/fault"
	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/wire"
	"sirius/internal/workload"
)

func TestSoakMixedAdversarialTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const nodes = 32
	sched, err := schedule.NewGrouped(nodes, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mix three workloads: uniform background, a hotspot barrage, and an
	// all-to-all shuffle wave — arrivals interleaved.
	base := workload.DefaultConfig(nodes, 200*simtime.Gbps, 0.5, 1500)
	base.Seed = 101
	uniform, err := workload.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	hot := base
	hot.Pattern = workload.Hotspot
	hot.HotFraction = 0.6
	hot.Flows = 800
	hot.Seed = 102
	hotspot, err := workload.Generate(hot)
	if err != nil {
		t.Fatal(err)
	}
	shuffle, err := workload.AllToAll(nodes, 40_000, 2, 50*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	var flows []workload.Flow
	flows = append(flows, uniform...)
	flows = append(flows, hotspot...)
	flows = append(flows, shuffle...)
	// Re-sort and re-ID.
	for i := 1; i < len(flows); i++ {
		for j := i; j > 0 && flows[j].Arrival < flows[j-1].Arrival; j-- {
			flows[j], flows[j-1] = flows[j-1], flows[j]
		}
	}
	for i := range flows {
		flows[i].ID = i
	}

	for _, mode := range []core.Mode{core.ModeRequestGrant, core.ModeIdeal} {
		res, err := core.Run(core.Config{
			Schedule:      sched,
			Slot:          phy.DefaultSlot(),
			Q:             4,
			Mode:          mode,
			NormalizeRate: 200 * simtime.Gbps,
			TrackReorder:  true,
			Seed:          7,
		}, flows)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Completed != len(flows) {
			t.Fatalf("mode %d: completed %d of %d", mode, res.Completed, len(flows))
		}
		if res.DeliveredBytes != workload.TotalBytes(flows) {
			t.Fatalf("mode %d: byte conservation violated", mode)
		}
		// Queue bound: Q*k per (via,dst) aggregated over 31 destinations.
		k := sched.ConnectionsPerEpoch()
		bound := 4 * k * (nodes - 1) * phy.DefaultSlot().CellBytes
		if res.PeakNodeQueueBytes > bound {
			t.Fatalf("mode %d: node queue %d exceeded bound %d", mode,
				res.PeakNodeQueueBytes, bound)
		}
	}
}

func TestSoakManySeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// The invariants (delivery, conservation, bounded queues via internal
	// panics) hold across many seeds.
	for seed := uint64(1); seed <= 12; seed++ {
		cfg := DefaultConfig(16)
		cfg.Seed = seed
		flows := Workload(cfg, 0.8, 300, seed)
		rep, err := cfg.Run(flows)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Completed != len(flows) {
			t.Fatalf("seed %d: completed %d of %d", seed, rep.Completed, len(flows))
		}
	}
}

func TestSoakPrototypeLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// The paper demonstrates error-free operation over 24 hours; the
	// scaled equivalent here is a long prototype run: 5,000 epochs of
	// four nodes exchanging PRBS through the TCP AWGR — 80,000 cells,
	// zero bit errors, zero misroutes.
	st, err := wire.RunPrototype(4, 5_000, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.BER != 0 || !st.ErrFree {
		t.Errorf("long run BER = %v", st.BER)
	}
	for _, n := range st.Nodes {
		if n.Misrouted != 0 || n.Received != 20_000 {
			t.Errorf("node %+v", n)
		}
	}
}

func TestSoakFaultyFabric(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	// A faulty-fabric soak: one seeded plan layers every fault kind over a
	// 300-epoch run — a transient stall, a restart flap, a short grey
	// blackhole (too brief to trip the suspicion threshold), a BER
	// degradation window, and finally a fail-stop crash. The survivors
	// must detect the crash at the model-predicted latency, compact, and
	// finish error-free; and because every random choice flows from the
	// plan seed, a second run must reproduce the first byte-identically.
	const (
		nodes  = 5
		epochs = 300
	)
	plan := &fault.Plan{Seed: 2024, Events: []fault.Event{
		{Kind: fault.Stall, Src: 0, Epoch: 20, Until: 40, DelayMicros: 200},
		{Kind: fault.Flap, Node: 1, Epoch: 30},
		{Kind: fault.Grey, Src: 3, Dst: 0, Epoch: 80, Until: 82},
		{Kind: fault.Degrade, Src: 2, Epoch: 100, Until: 200, FlipProb: 5e-5},
		{Kind: fault.Crash, Node: 4, Epoch: 60},
	}}

	run := func(batchFrames int) *wire.FaultStats {
		t.Helper()
		fs, err := wire.RunPrototypeCfg(wire.PrototypeConfig{
			Nodes:        nodes,
			Epochs:       epochs,
			PayloadBytes: 64,
			Plan:         plan,
			BatchFrames:  batchFrames,
			// Localhost doesn't need the production silence budget; keep
			// the three silent gate waits short.
			SuspectTimeout: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}

	start := time.Now()
	a := run(0) // default output batching
	if d := time.Since(start); d > 60*time.Second {
		t.Errorf("faulty soak took %v; graceful degradation should finish in seconds", d)
	}

	// The crash — and only the crash — becomes a confirmed failure: the
	// stall and the restart flap are survivable, and the grey window is
	// shorter than the suspicion threshold.
	if len(a.Failures) != 1 || a.Failures[0].Peer != 4 {
		t.Fatalf("failures = %+v, want exactly node 4", a.Failures)
	}
	if a.KillEpoch != 60 {
		t.Errorf("kill epoch = %d, want 60", a.KillEpoch)
	}
	if a.DetectEpochs != 4 {
		t.Errorf("kill-to-confirm = %d epochs, want 4 (threshold+1)", a.DetectEpochs)
	}
	if a.Survivors != nodes-1 {
		t.Errorf("survivors = %d, want %d", a.Survivors, nodes-1)
	}
	if a.CompactedGoodput < 0.99 {
		t.Errorf("compacted slot utilization = %.3f, want ~1", a.CompactedGoodput)
	}
	// The degradation window injects real bit errors, but far below the
	// FEC budget: the run is noisy yet still error-free post-FEC.
	if a.BER == 0 {
		t.Error("degrade window injected no bit errors")
	}
	if !a.ErrFree {
		t.Errorf("BER %v exceeded the FEC budget", a.BER)
	}
	for _, n := range a.Nodes {
		if n.Node == 1 && n.Reconnects != 1 {
			t.Errorf("flapped node reconnects = %d, want 1", n.Reconnects)
		}
		if n.Misrouted != 0 {
			t.Errorf("node %d misrouted %d", n.Node, n.Misrouted)
		}
	}

	// Replay: everything the seed controls reproduces exactly — the plan
	// hash, every transmission decision, every injected bit flip, the
	// failure timeline, and every node's received count. The flap and
	// the crash leave at exact epoch boundaries (half-close, then
	// re-register only after the old connection is read to its end), so
	// no frame's fate depends on socket timing.
	b := run(0)
	if a.PlanHash != b.PlanHash {
		t.Fatalf("plan hash changed across runs: %s vs %s", a.PlanHash, b.PlanHash)
	}
	if len(a.Failures) != len(b.Failures) || a.Failures[0] != b.Failures[0] {
		t.Errorf("failure timeline drift: %+v vs %+v", a.Failures, b.Failures)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], b.Nodes[i]
		if x.Sent != y.Sent || x.Received != y.Received || x.BitErrors != y.BitErrors {
			t.Errorf("node %d drift: %+v vs %+v", x.Node, x, y)
		}
	}

	// The write-coalescing policy must be invisible to the failure story:
	// a batch=1 run (the pre-batching per-frame behavior) reproduces the
	// same failure timeline, transmissions, and injected corruption.
	c := run(1)
	if a.PlanHash != c.PlanHash {
		t.Fatalf("plan hash changed with batching off: %s vs %s", a.PlanHash, c.PlanHash)
	}
	if len(a.Failures) != len(c.Failures) || a.Failures[0] != c.Failures[0] {
		t.Errorf("failure timeline differs with batching off: %+v vs %+v", a.Failures, c.Failures)
	}
	for i := range a.Nodes {
		x, y := a.Nodes[i], c.Nodes[i]
		if x.Sent != y.Sent || x.Received != y.Received || x.BitErrors != y.BitErrors {
			t.Errorf("node %d differs with batching off: %+v vs %+v", x.Node, x, y)
		}
	}
}
