package fault

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	good := &Plan{Seed: 1, Events: []Event{
		{Kind: Crash, Node: 1, Epoch: 10},
		{Kind: Flap, Node: 2, Epoch: 5},
		{Kind: Grey, Src: 0, Dst: 3, Epoch: 2, Until: 9},
		{Kind: Degrade, Src: 1, Epoch: 0, FlipProb: 1e-3},
		{Kind: Stall, Src: 2, Epoch: 1, Until: 4, DelayMicros: 100},
	}}
	if err := good.Validate(4); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	bad := []Plan{
		{Events: []Event{{Kind: Crash, Node: 4, Epoch: 1}}},
		{Events: []Event{{Kind: Crash, Node: 0, Epoch: -1}}},
		{Events: []Event{{Kind: Grey, Src: 0, Dst: 9, Epoch: 1}}},
		{Events: []Event{{Kind: Degrade, Src: 0, Epoch: 0, FlipProb: 1.5}}},
		{Events: []Event{{Kind: Stall, Src: 0, Epoch: 3, Until: 2}}},
		{Events: []Event{{Kind: "meltdown", Epoch: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad plan %d accepted", i)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(4); err != nil {
		t.Errorf("nil plan should validate: %v", err)
	}
}

func TestValidateLifecycle(t *testing.T) {
	good := []Plan{
		// Rolling restart: crash then restart.
		{Events: []Event{
			{Kind: Crash, Node: 1, Epoch: 10},
			{Kind: Restart, Node: 1, Epoch: 30},
		}},
		// Drain then restart (restart accepts either prior kind).
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Restart, Node: 1, Epoch: 30},
		}},
		// Drain then readd; expansion of a fresh node.
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Readd, Node: 1, Epoch: 30},
			{Kind: Expand, Node: 3, Epoch: 20},
		}},
		// Drain without return: the node leaves for good.
		{Events: []Event{{Kind: Drain, Node: 2, Epoch: 5}}},
	}
	for i, p := range good {
		if err := p.Validate(4); err != nil {
			t.Errorf("good lifecycle plan %d rejected: %v", i, err)
		}
	}
	bad := []Plan{
		// The satellite rule: a restart with no prior crash or drain.
		{Events: []Event{{Kind: Restart, Node: 1, Epoch: 30}}},
		// Restart not after its crash.
		{Events: []Event{
			{Kind: Crash, Node: 1, Epoch: 30},
			{Kind: Restart, Node: 1, Epoch: 30},
		}},
		// Readd with no prior drain.
		{Events: []Event{{Kind: Readd, Node: 1, Epoch: 30}}},
		// Readd not after its drain.
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 30},
			{Kind: Readd, Node: 1, Epoch: 20},
		}},
		// Two rejoins for one node.
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Readd, Node: 1, Epoch: 20},
			{Kind: Restart, Node: 1, Epoch: 30},
		}},
		// Duplicate per-node lifecycle events.
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Drain, Node: 1, Epoch: 20},
		}},
		// Undefined interleavings.
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Crash, Node: 1, Epoch: 20},
		}},
		{Events: []Event{
			{Kind: Drain, Node: 1, Epoch: 10},
			{Kind: Flap, Node: 1, Epoch: 5},
		}},
		{Events: []Event{
			{Kind: Expand, Node: 1, Epoch: 10},
			{Kind: Crash, Node: 1, Epoch: 20},
		}},
		// Lifecycle kinds still range-check their node.
		{Events: []Event{{Kind: Expand, Node: 9, Epoch: 10}}},
		{Events: []Event{{Kind: Drain, Node: -1, Epoch: 10}}},
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("bad lifecycle plan %d accepted", i)
		}
	}
}

// TestOverlapPrecedence pins the documented resolution for overlapping
// windows: Degrade takes the max flip probability, Stall the max delay,
// Grey the union of active windows.
func TestOverlapPrecedence(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Degrade, Src: 0, Epoch: 0, Until: 10, FlipProb: 1e-3},
		{Kind: Degrade, Src: 0, Epoch: 5, Until: 15, FlipProb: 1e-5},
		{Kind: Stall, Src: 1, Epoch: 0, Until: 10, DelayMicros: 50},
		{Kind: Stall, Src: 1, Epoch: 5, Until: 15, DelayMicros: 200},
		{Kind: Grey, Src: 2, Dst: 0, Epoch: 0, Until: 6},
		{Kind: Grey, Src: 2, Dst: 1, Epoch: 4, Until: 10},
	}}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	// Degrade overlap at epoch 7: the larger window wins, even though the
	// smaller one starts later (max, not last-match or first-match).
	if got := p.FlipProb(0, 7, 1e-6); got != 1e-3 {
		t.Errorf("overlapping degrade FlipProb = %v, want max 1e-3", got)
	}
	// After the large window ends the small one still applies.
	if got := p.FlipProb(0, 12, 1e-6); got != 1e-5 {
		t.Errorf("tail degrade FlipProb = %v, want 1e-5", got)
	}
	// A base rate above every override also wins (max includes base).
	if got := p.FlipProb(0, 7, 0.5); got != 0.5 {
		t.Errorf("base above overrides = %v, want 0.5", got)
	}
	// Stall overlap at epoch 7: the slowest active stall wins, not the
	// first-listed one.
	if got := p.StallDelay(1, 7); got != 200*time.Microsecond {
		t.Errorf("overlapping stall = %v, want 200µs (max)", got)
	}
	if got := p.StallDelay(1, 2); got != 50*time.Microsecond {
		t.Errorf("early stall = %v, want 50µs", got)
	}
	// Grey is a union over windows: distinct pairs coexist, and epoch 5
	// (inside both windows) drops toward both destinations.
	if !p.GreyDrop(2, 0, 5) || !p.GreyDrop(2, 1, 5) {
		t.Error("overlapping grey windows did not union")
	}
	if p.GreyDrop(2, 1, 2) || p.GreyDrop(2, 0, 8) {
		t.Error("grey window boundaries wrong")
	}
}

func TestLifecycleQueries(t *testing.T) {
	p := &Plan{Events: []Event{
		{Kind: Expand, Node: 4, Epoch: 12},
		{Kind: Expand, Node: 5, Epoch: 12},
		{Kind: Drain, Node: 1, Epoch: 20},
		{Kind: Readd, Node: 1, Epoch: 40},
		{Kind: Crash, Node: 2, Epoch: 30},
		{Kind: Restart, Node: 2, Epoch: 50},
		{Kind: Flap, Node: 3, Epoch: 8},
	}}
	if err := p.Validate(6); err != nil {
		t.Fatal(err)
	}
	if got := p.ExpandEpoch(4); got != 12 {
		t.Errorf("ExpandEpoch(4) = %d", got)
	}
	if got := p.ExpandEpoch(0); got != -1 {
		t.Errorf("ExpandEpoch(0) = %d, want -1", got)
	}
	if got := p.DrainEpoch(1); got != 20 {
		t.Errorf("DrainEpoch(1) = %d", got)
	}
	if got := p.nodeEpoch(Readd, 1); got != 40 {
		t.Errorf("readd epoch of node 1 = %d", got)
	}
	if got := p.FlapEpoch(3); got != 8 {
		t.Errorf("FlapEpoch(3) = %d", got)
	}
	if got := p.nodeEpoch(Restart, 2); got != 50 {
		t.Errorf("restart epoch of node 2 = %d", got)
	}
	// RejoinEpoch folds restart-after-crash and readd-after-drain.
	if got := p.RejoinEpoch(1); got != 40 {
		t.Errorf("RejoinEpoch(1) = %d, want 40 (readd)", got)
	}
	if got := p.RejoinEpoch(2); got != 50 {
		t.Errorf("RejoinEpoch(2) = %d, want 50 (restart)", got)
	}
	if got := p.RejoinEpoch(0); got != -1 {
		t.Errorf("RejoinEpoch(0) = %d, want -1", got)
	}
	if js := p.Joiners(); len(js) != 2 || js[0] != 4 || js[1] != 5 {
		t.Errorf("Joiners = %v, want [4 5]", js)
	}
	var nilPlan *Plan
	if nilPlan.Joiners() != nil || nilPlan.DrainEpoch(0) != -1 ||
		nilPlan.RejoinEpoch(0) != -1 || nilPlan.FlapEpoch(0) != -1 {
		t.Error("nil plan lifecycle queries not inert")
	}
}

func TestQueries(t *testing.T) {
	p := &Plan{Seed: 7, Events: []Event{
		{Kind: Crash, Node: 1, Epoch: 10},
		{Kind: Flap, Node: 2, Epoch: 5},
		{Kind: Grey, Src: 0, Dst: 3, Epoch: 2, Until: 9},
		{Kind: Degrade, Src: 1, Epoch: 4, FlipProb: 1e-3},
		{Kind: Stall, Src: 2, Epoch: 1, Until: 4, DelayMicros: 100},
	}}
	if got := p.CrashEpoch(1); got != 10 {
		t.Errorf("CrashEpoch(1) = %d", got)
	}
	if got := p.CrashEpoch(0); got != -1 {
		t.Errorf("CrashEpoch(0) = %d", got)
	}
	if got := p.FlapEpoch(2); got != 5 {
		t.Errorf("FlapEpoch(2) = %d", got)
	}
	if !p.GreyDrop(0, 3, 2) || !p.GreyDrop(0, 3, 8) {
		t.Error("grey window not active")
	}
	if p.GreyDrop(0, 3, 1) || p.GreyDrop(0, 3, 9) || p.GreyDrop(3, 0, 5) {
		t.Error("grey drop outside window or wrong pair")
	}
	if got := p.FlipProb(1, 4, 1e-6); got != 1e-3 {
		t.Errorf("FlipProb override = %v", got)
	}
	if got := p.FlipProb(1, 3, 1e-6); got != 1e-6 {
		t.Errorf("FlipProb before window = %v", got)
	}
	if got := p.StallDelay(2, 2); got != 100*time.Microsecond {
		t.Errorf("StallDelay = %v", got)
	}
	if got := p.StallDelay(2, 4); got != 0 {
		t.Errorf("StallDelay past window = %v", got)
	}
	var nilPlan *Plan
	if nilPlan.GreyDrop(0, 0, 0) || nilPlan.FlipProb(0, 0, 0.5) != 0.5 ||
		nilPlan.StallDelay(0, 0) != 0 || nilPlan.CrashEpoch(0) != -1 {
		t.Error("nil plan queries not inert")
	}
	if !nilPlan.Empty() {
		t.Error("nil plan not empty")
	}
}

func TestHashContentAddressing(t *testing.T) {
	a := &Plan{Seed: 1, Events: []Event{
		{Kind: Crash, Node: 1, Epoch: 10},
		{Kind: Grey, Src: 0, Dst: 3, Epoch: 2},
	}}
	// Same events, permuted: identical hash.
	b := &Plan{Seed: 1, Events: []Event{
		{Kind: Grey, Src: 0, Dst: 3, Epoch: 2},
		{Kind: Crash, Node: 1, Epoch: 10},
	}}
	if a.Hash() != b.Hash() {
		t.Errorf("permuted plan hashed differently: %s vs %s", a.Hash(), b.Hash())
	}
	// Different seed: different hash.
	c := &Plan{Seed: 2, Events: a.Events}
	if a.Hash() == c.Hash() {
		t.Error("seed not part of the content address")
	}
	// Different event: different hash.
	d := &Plan{Seed: 1, Events: []Event{{Kind: Crash, Node: 2, Epoch: 10}}}
	if a.Hash() == d.Hash() {
		t.Error("distinct plans collided")
	}
	var nilPlan *Plan
	if nilPlan.Hash() != "none" {
		t.Errorf("nil hash = %s", nilPlan.Hash())
	}
}

func TestParseRoundTrip(t *testing.T) {
	p := KillPlan(2, 40, 99)
	q, err := Parse(p.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	if q.Hash() != p.Hash() {
		t.Errorf("round trip changed hash: %s vs %s", q.Hash(), p.Hash())
	}
	if q.Seed != 99 || q.CrashEpoch(2) != 40 {
		t.Errorf("round trip lost content: %+v", q)
	}
	if _, err := Parse([]byte("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestLoadMissing(t *testing.T) {
	if _, err := Load("/nonexistent/plan.json"); err == nil {
		t.Error("missing file accepted")
	}
}
