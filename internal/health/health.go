// Package health implements §4.5's failure detection: because the cyclic
// schedule interconnects every node pair once per epoch (microseconds),
// a node whose transmissions stop arriving — entirely, or only toward
// some peers ("grey" failures) — is noticed within a few epochs by the
// peers it goes dark toward, and the detection is flooded datacenter-wide
// in one further epoch, preventing traffic from blackholing through a
// dead intermediate.
package health

import "fmt"

// Config parameterizes the detector.
type Config struct {
	Nodes int
	// MissThreshold is how many consecutive missed per-epoch beacons an
	// observer tolerates before suspecting the peer (riding out benign
	// loss).
	MissThreshold int
}

// DefaultConfig suspects after 3 consecutive silent epochs — with 1.6 us
// epochs, detection plus flooding lands well under 10 us, the paper's
// "few microseconds".
func DefaultConfig(nodes int) Config {
	return Config{Nodes: nodes, MissThreshold: 3}
}

// Detector tracks per-pair reception and aggregates failure verdicts.
type Detector struct {
	cfg     Config
	misses  [][]int // [observer][peer] consecutive missed epochs
	suspect [][]bool
	// confirmed[peer]: peer is globally known-failed (flooded).
	confirmed []bool
	// pendingFlood holds detections made this epoch, visible to everyone
	// at the next epoch boundary (the flood rides the schedule).
	pendingFlood []int
	epoch        int
	detectedAt   []int // epoch at which each node was first suspected; -1
	confirmedAt  []int // epoch at which the flood completed; -1
}

// New builds a detector.
func New(cfg Config) (*Detector, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("health: need >= 2 nodes")
	}
	if cfg.MissThreshold < 1 {
		return nil, fmt.Errorf("health: threshold must be >= 1")
	}
	d := &Detector{
		cfg:         cfg,
		misses:      make([][]int, cfg.Nodes),
		suspect:     make([][]bool, cfg.Nodes),
		confirmed:   make([]bool, cfg.Nodes),
		detectedAt:  make([]int, cfg.Nodes),
		confirmedAt: make([]int, cfg.Nodes),
	}
	for i := range d.misses {
		d.misses[i] = make([]int, cfg.Nodes)
		d.suspect[i] = make([]bool, cfg.Nodes)
		d.detectedAt[i] = -1
		d.confirmedAt[i] = -1
	}
	return d, nil
}

// Epoch advances one epoch. received(observer, peer) reports whether the
// observer heard the peer's scheduled transmission this epoch; it is
// only consulted for live observers about unconfirmed peers. It returns
// the peers newly confirmed failed this epoch (flood completed).
func (d *Detector) Epoch(received func(observer, peer int) bool) []int {
	// 1. Flood last epoch's detections: everyone now knows.
	var newlyConfirmed []int
	for _, p := range d.pendingFlood {
		if !d.confirmed[p] {
			d.confirmed[p] = true
			d.confirmedAt[p] = d.epoch
			newlyConfirmed = append(newlyConfirmed, p)
		}
	}
	d.pendingFlood = d.pendingFlood[:0]

	// 2. Observe this epoch's beacons.
	for obs := 0; obs < d.cfg.Nodes; obs++ {
		if d.confirmed[obs] {
			continue // dead nodes observe nothing
		}
		for peer := 0; peer < d.cfg.Nodes; peer++ {
			if peer == obs || d.confirmed[peer] || d.suspect[obs][peer] {
				continue
			}
			if received(obs, peer) {
				d.misses[obs][peer] = 0
				continue
			}
			d.misses[obs][peer]++
			if d.misses[obs][peer] >= d.cfg.MissThreshold {
				d.suspect[obs][peer] = true
				if d.detectedAt[peer] < 0 {
					d.detectedAt[peer] = d.epoch
				}
				d.pendingFlood = append(d.pendingFlood, peer)
			}
		}
	}
	d.epoch++
	return newlyConfirmed
}

// Confirmed reports whether node p is globally known-failed.
func (d *Detector) Confirmed(p int) bool { return d.confirmed[p] }

// DetectionLatency returns, for a confirmed node, the wall time in
// epochs from its first silent epoch through fabric-wide confirmation:
// MissThreshold epochs of silence plus one flood epoch. It returns -1
// for live nodes.
func (d *Detector) DetectionLatency(p int) int {
	if d.confirmedAt[p] < 0 {
		return -1
	}
	silenceStart := d.detectedAt[p] - (d.cfg.MissThreshold - 1)
	return d.confirmedAt[p] - silenceStart + 1
}

// Observer is the single-node slice of the Detector, embedded by live
// nodes (internal/wire): where the Detector holds the full observer×peer
// matrix for offline analysis, an Observer judges only what one node can
// see — the highest epoch heard from each peer — and raises suspicion
// once a peer has been silent for MissThreshold consecutive epochs.
//
// The judgement is gap-based rather than counter-based: at epoch e the
// observer should have heard each live peer's epoch e-1 transmission, so
// a peer last heard at epoch h has been silent for (e-1) - h epochs. A
// straggler that is merely slow (heard one epoch behind, as happens when
// it is itself riding out someone else's failure) keeps a constant gap of
// 1 and is never suspected; only a peer whose gap *grows* to the
// threshold is — the same semantics as Detector's consecutive-miss
// counter, without requiring the live node to observe every epoch
// boundary exactly once.
type Observer struct {
	threshold int
	suspected []bool
}

// NewObserver builds an observer over the given node count.
func NewObserver(nodes, missThreshold int) (*Observer, error) {
	if nodes < 2 {
		return nil, fmt.Errorf("health: need >= 2 nodes")
	}
	if missThreshold < 1 {
		return nil, fmt.Errorf("health: threshold must be >= 1")
	}
	return &Observer{threshold: missThreshold, suspected: make([]bool, nodes)}, nil
}

// Judge evaluates peer at the given local epoch: lastHeard is the highest
// epoch the observer has received from the peer (-1 for never). It
// returns true exactly once, when the peer first crosses the suspicion
// threshold.
func (o *Observer) Judge(peer, lastHeard, epoch int) (newlySuspected bool) {
	if o.suspected[peer] {
		return false
	}
	if (epoch-1)-lastHeard >= o.threshold {
		o.suspected[peer] = true
		return true
	}
	return false
}

// Forgive clears the suspicion state for a peer that has been re-admitted
// to the fabric (a rolling restart or a drained node's re-add). After
// Forgive, Judge can suspect the peer again — the once-only contract is
// per admission, not per process lifetime.
func (o *Observer) Forgive(peer int) { o.suspected[peer] = false }
