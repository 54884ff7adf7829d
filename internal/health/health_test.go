package health

import (
	"testing"

	"sirius/internal/rng"
)

// world drives a detector against a simple truth model.
type world struct {
	d     *Detector
	dead  map[int]bool
	grey  map[[2]int]bool // (observer, peer) pairs that silently fail
	noise float64         // benign per-beacon loss probability
	r     *rng.RNG
}

func newWorld(t *testing.T, nodes int) *world {
	d, err := New(DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	return &world{d: d, dead: map[int]bool{}, grey: map[[2]int]bool{}, r: rng.New(1)}
}

func (w *world) epoch() []int {
	return w.d.Epoch(func(obs, peer int) bool {
		if w.dead[peer] || w.grey[[2]int{obs, peer}] {
			return false
		}
		if w.noise > 0 && w.r.Float64() < w.noise {
			return false
		}
		return true
	})
}

// suspectedBy returns how many live observers individually suspect p.
func suspectedBy(d *Detector, p int) int {
	n := 0
	for obs := 0; obs < d.cfg.Nodes; obs++ {
		if obs != p && !d.confirmed[obs] && d.suspect[obs][p] {
			n++
		}
	}
	return n
}

func TestNoFalsePositives(t *testing.T) {
	w := newWorld(t, 16)
	for e := 0; e < 200; e++ {
		if got := w.epoch(); len(got) != 0 {
			t.Fatalf("epoch %d: false positive %v", e, got)
		}
	}
}

func TestBenignLossTolerated(t *testing.T) {
	// 10% random beacon loss never produces 3 consecutive misses often
	// enough... it can (0.1% per pair per epoch), so use a loss rate the
	// threshold is designed for.
	w := newWorld(t, 8)
	w.noise = 0.01 // 0.01^3 = 1e-6 per pair-epoch; 56 pairs x 300 epochs ~ 0.02 expected
	for e := 0; e < 300; e++ {
		if got := w.epoch(); len(got) != 0 {
			t.Fatalf("benign loss flagged a failure: %v", got)
		}
	}
}

func TestCrashDetectedFast(t *testing.T) {
	// §4.5: "quick datacenter-wide communication of any detected
	// failures". A crash is confirmed everywhere in threshold+1 epochs.
	w := newWorld(t, 16)
	for e := 0; e < 10; e++ {
		w.epoch()
	}
	w.dead[5] = true
	confirmedAt := -1
	for e := 0; e < 10; e++ {
		if got := w.epoch(); len(got) == 1 && got[0] == 5 {
			confirmedAt = e
			break
		}
	}
	if confirmedAt < 0 {
		t.Fatal("crash never confirmed")
	}
	// Silence epochs 0,1,2 trigger suspicion at the 3rd; flood lands the
	// next epoch: confirmation on the 4th epoch after the crash (e==3).
	if confirmedAt != 3 {
		t.Errorf("confirmed after %d epochs, want 3 (threshold 3 + flood)", confirmedAt+1)
	}
	if !w.d.Confirmed(5) {
		t.Error("Confirmed(5) false")
	}
	if lat := w.d.DetectionLatency(5); lat != 4 {
		t.Errorf("detection latency = %d epochs, want 4", lat)
	}
}

func TestGreyFailureDetected(t *testing.T) {
	// A grey failure: node 7 goes dark toward only two observers. Those
	// two detect it and the flood tells everyone.
	w := newWorld(t, 16)
	w.grey[[2]int{2, 7}] = true
	w.grey[[2]int{9, 7}] = true
	var confirmed bool
	for e := 0; e < 10 && !confirmed; e++ {
		for _, p := range w.epoch() {
			if p == 7 {
				confirmed = true
			}
		}
	}
	if !confirmed {
		t.Fatal("grey failure never confirmed")
	}
	if got := suspectedBy(w.d, 7); got != 2 {
		t.Errorf("suspected by %d observers, want exactly the 2 grey links", got)
	}
}

func TestDetectionLatencyLiveNode(t *testing.T) {
	w := newWorld(t, 4)
	w.epoch()
	if w.d.DetectionLatency(1) != -1 {
		t.Error("live node has a detection latency")
	}
}

func TestDeadObserversIgnored(t *testing.T) {
	// Once a node is confirmed dead its (absent) observations must not
	// drag others down.
	w := newWorld(t, 8)
	w.dead[0] = true
	for e := 0; e < 6; e++ {
		w.epoch()
	}
	if !w.d.Confirmed(0) {
		t.Fatal("crash not confirmed")
	}
	for e := 0; e < 50; e++ {
		if got := w.epoch(); len(got) != 0 {
			t.Fatalf("dead observer caused detection %v", got)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 1, MissThreshold: 3}); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := New(Config{Nodes: 4, MissThreshold: 0}); err == nil {
		t.Error("0 threshold accepted")
	}
}

func TestMultipleSimultaneousFailures(t *testing.T) {
	w := newWorld(t, 16)
	w.dead[3] = true
	w.dead[11] = true
	found := map[int]bool{}
	for e := 0; e < 10; e++ {
		for _, p := range w.epoch() {
			found[p] = true
		}
	}
	if !found[3] || !found[11] {
		t.Errorf("found %v, want both 3 and 11", found)
	}
}

func TestObserverSuspectsAfterThreshold(t *testing.T) {
	o, err := NewObserver(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Peer 1 transmits epochs 0..4 then crashes at epoch 5 (last heard 4).
	lastHeard := 4
	for e := 5; e <= 7; e++ {
		if o.Judge(1, lastHeard, e) {
			t.Fatalf("suspected at epoch %d, before the threshold", e)
		}
	}
	// At epoch 8 the peer has been silent for epochs 5,6,7 = 3 epochs.
	if !o.Judge(1, lastHeard, 8) {
		t.Fatal("not suspected after MissThreshold silent epochs")
	}
	if !o.suspected[1] {
		t.Fatal("Suspected not sticky")
	}
	if o.Judge(1, lastHeard, 9) {
		t.Fatal("Judge fired twice for the same peer")
	}
	if o.threshold != 3 {
		t.Errorf("threshold = %d", o.threshold)
	}
}

func TestObserverForgive(t *testing.T) {
	o, err := NewObserver(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Judge(1, 4, 8) || !o.suspected[1] {
		t.Fatal("setup: peer not suspected")
	}
	// A rolling restart re-admits the peer: suspicion clears, and the
	// once-only Judge contract resets for the new admission.
	o.Forgive(1)
	if o.suspected[1] {
		t.Fatal("Forgive did not clear suspicion")
	}
	if o.Judge(1, 20, 22) {
		t.Fatal("freshly re-admitted, caught-up peer suspected")
	}
	if !o.Judge(1, 20, 24) {
		t.Fatal("re-admitted peer not suspectable after going silent again")
	}
}

func TestObserverStragglerNotSuspected(t *testing.T) {
	// A peer that is persistently one epoch behind (e.g. itself riding out
	// another node's failure) keeps a constant gap and is never suspected.
	o, err := NewObserver(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := 1; e < 100; e++ {
		if o.Judge(2, e-2, e) {
			t.Fatalf("straggler suspected at epoch %d", e)
		}
	}
}

func TestObserverMatchesDetector(t *testing.T) {
	// Observer (gap-based) and Detector (counter-based) agree on when a
	// fail-stop crash crosses the threshold: suspicion lands exactly
	// MissThreshold epochs after the last transmission.
	const nodes, threshold, crashAt = 4, 3, 10
	d, err := New(Config{Nodes: nodes, MissThreshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	detectorSuspectAt := -1
	for e := 0; e < 30 && detectorSuspectAt < 0; e++ {
		d.Epoch(func(obs, peer int) bool { return peer != 1 || e < crashAt })
		if suspectedBy(d, 1) > 0 && detectorSuspectAt < 0 {
			detectorSuspectAt = e
		}
	}
	o, err := NewObserver(nodes, threshold)
	if err != nil {
		t.Fatal(err)
	}
	observerSuspectAt := -1
	for e := 0; e < 30 && observerSuspectAt < 0; e++ {
		lastHeard := crashAt - 1
		if e-1 < lastHeard {
			lastHeard = e - 1
		}
		if o.Judge(1, lastHeard, e) {
			observerSuspectAt = e
		}
	}
	// Both suspect after exactly `threshold` silent epochs. The Detector
	// timestamps the suspicion *during* the third silent epoch (it sees
	// each epoch's beacons synchronously within that epoch), while a live
	// Observer can only judge epoch e-1 once epoch e has begun — so its
	// timestamp lands one boundary later. Same latency, shifted stamp.
	if observerSuspectAt != detectorSuspectAt+1 {
		t.Errorf("detector suspects at %d, observer at %d (want detector+1)",
			detectorSuspectAt, observerSuspectAt)
	}
	if observerSuspectAt != crashAt+threshold {
		t.Errorf("suspicion at %d, want crash+threshold = %d", observerSuspectAt, crashAt+threshold)
	}
}

func TestObserverValidation(t *testing.T) {
	if _, err := NewObserver(1, 3); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := NewObserver(4, 0); err == nil {
		t.Error("0 threshold accepted")
	}
}
