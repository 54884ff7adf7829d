package exp

import (
	"fmt"
	"strings"
	"time"

	"sirius/internal/fault"
	"sirius/internal/telemetry"
	"sirius/internal/wire"
)

// Lifecycle is the fleet-lifecycle soak: one seeded, content-addressed
// fault plan interleaves every planned operation the fabric supports —
// live expansion, a maintenance drain, a re-add — with the reactive
// kinds it already survived (a crash, a receiver-sensitivity degrade
// window, a stall window), over a horizon long enough for each regime
// to reach steady state. The run executes twice at the same seed and
// the experiment fails unless both runs produce the identical
// fabric-observable outcome: per-node send/receive/bit counters,
// membership-change timelines, and the survivors' consensus failure
// view. It also fails unless /healthz was green outside the single
// injected crash incident: exactly one degraded->healthy excursion in
// the health history, and healthy at the end. Planned operations must
// not flip health at all (the drain and re-add relink quietly), so any
// extra transition is a bug, not noise.
func Lifecycle(seed uint64) (*Table, error) {
	if seed == 0 {
		seed = 42
	}
	const (
		nodes  = 6  // ports 0-3 are founders, 4-5 join live
		epochs = 64 // 4->6 grow, drain/re-add cycle, crash, then steady state
	)
	plan := &fault.Plan{Seed: seed, Events: []fault.Event{
		{Kind: fault.Expand, Node: 4, Epoch: 10},
		{Kind: fault.Expand, Node: 5, Epoch: 10},
		{Kind: fault.Degrade, Src: 2, Epoch: 16, Until: 22, FlipProb: 2e-3},
		{Kind: fault.Drain, Node: 1, Epoch: 24},
		{Kind: fault.Stall, Src: 3, Epoch: 30, Until: 34, DelayMicros: 200},
		{Kind: fault.Readd, Node: 1, Epoch: 38},
		{Kind: fault.Crash, Node: 0, Epoch: 50},
	}}

	run := func() (*wire.FaultStats, *telemetry.Health, error) {
		h := telemetry.NewHealth(64)
		fs, err := wire.RunPrototypeCfg(wire.PrototypeConfig{
			Nodes:        nodes,
			Epochs:       epochs,
			PayloadBytes: 64,
			Plan:         plan,
			// Localhost: 400ms per silent gate keeps the crash's three
			// suspicion waits under two seconds.
			SuspectTimeout: 400 * time.Millisecond,
			Telemetry:      telemetry.NewRegistry(),
			Health:         h,
		})
		return fs, h, err
	}

	fs, h, err := run()
	if err != nil {
		return nil, err
	}
	fs2, _, err := run()
	if err != nil {
		return nil, fmt.Errorf("lifecycle replay: %w", err)
	}
	fp, fp2 := lifecycleFingerprint(fs), lifecycleFingerprint(fs2)
	if fp != fp2 {
		return nil, fmt.Errorf("lifecycle soak diverged on replay at seed %d:\nrun 1: %s\nrun 2: %s",
			seed, fp, fp2)
	}

	// /healthz contract: green everywhere outside the crash incident.
	// The planned operations never flip it, the crash flips it exactly
	// once (suspicion sets the condition, the schedule switch clears
	// it), so the whole soak records one degraded->healthy excursion.
	hist := h.History()
	if !h.Healthy() {
		return nil, fmt.Errorf("lifecycle soak: /healthz degraded after the run: %+v", h.Status().Conditions)
	}
	if !h.SawFlap() {
		return nil, fmt.Errorf("lifecycle soak: crash incident never surfaced on /healthz")
	}
	if len(hist) != 2 {
		return nil, fmt.Errorf("lifecycle soak: /healthz flipped outside the crash incident: %d transitions, want 2 (%+v)",
			len(hist), hist)
	}

	// Membership milestones, read off a founder's applied-change
	// timeline (replay equality already proved every full-horizon node
	// holds the same one).
	var grewAt, drainedAt, readdedAt int = -1, -1, -1
	for _, st := range fs.Nodes {
		if st.Node != 2 {
			continue
		}
		for _, ch := range st.Changes {
			switch {
			case ch.Kind == "join" && ch.Node >= 4 && grewAt < 0:
				grewAt = ch.Epoch
			case ch.Kind == "leave":
				drainedAt = ch.Epoch
			case ch.Kind == "join" && ch.Node == 1:
				readdedAt = ch.Epoch
			}
		}
	}

	t := &Table{
		Title: "lifecycle soak: expansion, drain/re-add, crash and load shifts at one seed",
		Note: "planned operations lose nothing and never flip /healthz; " +
			"the crash is the only incident; the run replays byte-identically",
		Header: []string{"metric", "value"},
	}
	t.Add("plan hash", fs.PlanHash)
	t.Add("plan", planSummary(plan))
	t.Add("founders / final members", fmt.Sprintf("%d / %d", 4, fs.Survivors))
	t.Add("epoch horizon", epochs)
	t.Add("fabric grew 4->6 at epoch", grewAt)
	t.Add("node 1 drained at epoch", drainedAt)
	t.Add("node 1 re-added at epoch", readdedAt)
	t.Add("node 0 crashed at epoch", fs.KillEpoch)
	t.Add("crash suspect/confirm/switch", fmt.Sprintf("%d / %d / %d",
		fs.SuspectEpoch, fs.ConfirmEpoch, fs.SwitchEpoch))
	t.Add("frames routed", fs.Routed)
	t.Add("survivor cells received", fs.Cells)
	t.Add("survivor BER", fs.BER)
	t.Add("post-FEC error-free", fs.ErrFree)
	t.Add("frames dropped by the emulator", fs.Dropped)
	t.Add("healthz excursions (want 1)", len(hist)/2)
	t.Add("healthz green at end", h.Healthy())
	t.Add("replay identical at seed", fmt.Sprintf("true (seed %d)", seed))
	return t, nil
}

// lifecycleFingerprint flattens every observable of a soak run into one
// comparable string: routing and loss totals, the survivors' BER inputs,
// the consensus failure view, and each node's counters and
// membership-change timeline. None of it depends on timing: every node
// joins and leaves at an exact epoch boundary, and a crashed node
// half-closes and reads its input until the fabric closes, so frames
// sent to it are delivered (and ignored), never dropped.
func lifecycleFingerprint(fs *wire.FaultStats) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan=%s routed=%d cells=%d ber=%.17g dropped=%d grey=%d survivors=%d failures=%+v",
		fs.PlanHash, fs.Routed, fs.Cells, fs.BER, fs.Dropped, fs.GreyDropped, fs.Survivors, fs.Failures)
	for _, st := range fs.Nodes {
		fmt.Fprintf(&b, " | n%d sent=%d rx=%d bits=%d bitErrs=%d crash=%t eject=%t drain=%t rejoin=%d joinedAt=%d changes=%+v",
			st.Node, st.Sent, st.Received, st.Bits, st.BitErrors,
			st.Crashed, st.Ejected, st.Drained, st.Rejoins, st.JoinedAt, st.Changes)
	}
	return b.String()
}

// planSummary renders a fault plan's events as one compact line.
func planSummary(p *fault.Plan) string {
	parts := make([]string, 0, len(p.Events))
	for _, e := range p.Events {
		switch e.Kind {
		case fault.Degrade:
			parts = append(parts, fmt.Sprintf("%s src%d@[%d,%d)", e.Kind, e.Src, e.Epoch, e.Until))
		case fault.Stall:
			parts = append(parts, fmt.Sprintf("%s src%d@[%d,%d)", e.Kind, e.Src, e.Epoch, e.Until))
		case fault.Grey:
			parts = append(parts, fmt.Sprintf("%s %d->%d@[%d,%d)", e.Kind, e.Src, e.Dst, e.Epoch, e.Until))
		default:
			parts = append(parts, fmt.Sprintf("%s %d@%d", e.Kind, e.Node, e.Epoch))
		}
	}
	return strings.Join(parts, ", ")
}
