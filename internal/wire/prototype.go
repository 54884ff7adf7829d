package wire

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"sirius/internal/fault"
	"sirius/internal/telemetry"
)

// Stats aggregates a whole prototype run. When a fault plan crashed or
// ejected nodes, the aggregate BER/cell counts cover the survivors only —
// a dead node's half-finished statistics say nothing about the fabric
// that outlived it.
type Stats struct {
	Nodes   []NodeStats
	Routed  int64   // frames the emulator forwarded
	Cells   int     // cells received across surviving nodes
	BER     float64 // aggregate pre-FEC bit error rate (survivors)
	ErrFree bool    // true when BER is within the FEC budget (2e-4)
}

// PrototypeConfig parameterizes a prototype run beyond the basic knobs.
type PrototypeConfig struct {
	Nodes        int
	Epochs       int
	PayloadBytes int
	FlipProb     float64

	// Seed drives the emulator's corruption substreams. The default (0)
	// means seed 42, matching the historical clean-run behavior.
	Seed uint64

	// Plan scripts the faults to inject; nil runs a clean fabric.
	Plan *fault.Plan

	// SuspectTimeout and Timeout are forwarded to every node (zero
	// values take the NodeConfig defaults).
	SuspectTimeout time.Duration
	Timeout        time.Duration

	// BatchFrames is the emulator's per-output-port write coalescing
	// budget (Emulator.SetBatching). Zero takes the default; 1 disables
	// coalescing (the pre-batching per-frame write behavior).
	BatchFrames int

	// Telemetry, Health and Tracer are forwarded to every node and the
	// emulator, so a live fabric exposes per-node counters, degraded
	// conditions and per-epoch spans. Nil Telemetry uses the process
	// Default; nil Health/Tracer disable those planes.
	Telemetry *telemetry.Registry
	Health    *telemetry.Health
	Tracer    *telemetry.Tracer
}

// FaultStats extends Stats with the §4.5 failure-handling observables of
// a faulty run.
type FaultStats struct {
	Stats

	// PlanHash content-addresses the injected plan ("none" for clean runs).
	PlanHash string

	// Survivors is the number of nodes that finished the run alive.
	Survivors int

	// Failures is the survivors' consensus view of every detected failure
	// (suspect/confirm/switch epochs per victim). RunPrototypeCfg fails
	// if the survivors disagree.
	Failures []PeerFailure

	// DetectEpochs is, for single-failure runs, the fabric epochs from the
	// victim's first silent epoch through fabric-wide confirmation —
	// comparable with health.Detector.DetectionLatency.
	DetectEpochs int

	// KillEpoch..SwitchEpoch unpack the single failure, when there is one
	// (-1 otherwise).
	KillEpoch, SuspectEpoch, ConfirmEpoch, SwitchEpoch int

	// Dropped and GreyDropped mirror the emulator's loss counters: frames
	// lost to dead/over-parked ports and frames blackholed by Grey fault
	// windows. A planned-operations-only run (drains, re-adds, expansion)
	// must finish with both at zero — lifecycle transitions lose nothing.
	Dropped, GreyDropped int64

	// DegradedGoodput is the survivors' mean slot utilization between the
	// failure and the schedule switch: cells received per survivor-epoch
	// over the original schedule's slot count ((N-1)/N when one node is
	// silent). CompactedGoodput is the same ratio after the switch,
	// against the compacted slot count — 1.0 when compaction regained the
	// lost bandwidth.
	DegradedGoodput  float64
	CompactedGoodput float64
}

// RunPrototype reproduces the paper's §6 testbed experiment on a clean
// (or uniformly noisy) fabric: nodes processes exchange PRBS cells through
// the AWGR emulator for the given number of epochs.
func RunPrototype(nodes, epochs, payloadBytes int, flipProb float64) (*Stats, error) {
	fs, err := RunPrototypeCfg(PrototypeConfig{
		Nodes: nodes, Epochs: epochs, PayloadBytes: payloadBytes, FlipProb: flipProb,
	})
	if err != nil {
		return nil, err
	}
	return &fs.Stats, nil
}

// RunPrototypeCfg runs the prototype fabric under a full configuration,
// including a scripted fault plan, and returns the failure-handling
// observables alongside the usual statistics.
func RunPrototypeCfg(cfg PrototypeConfig) (*FaultStats, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("wire: need >= 2 nodes")
	}
	if cfg.Epochs < 1 {
		return nil, fmt.Errorf("wire: need >= 1 epoch")
	}
	if err := cfg.Plan.Validate(cfg.Nodes); err != nil {
		return nil, err
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 42
	}
	if cfg.Plan != nil && cfg.Plan.Seed != 0 {
		seed = cfg.Plan.Seed
	}

	em, err := NewEmulatorFault("127.0.0.1:0", cfg.Nodes, cfg.FlipProb, seed, cfg.Plan)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil || cfg.Health != nil {
		em.Instrument(cfg.Telemetry, cfg.Health)
	}
	em.SetBatching(cfg.BatchFrames)
	serveErr := make(chan error, 1)
	go func() { serveErr <- em.Serve() }()

	stats := make([]*NodeStats, cfg.Nodes)
	errs := make([]error, cfg.Nodes)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Nodes; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stats[id], errs[id] = RunNode(NodeConfig{
				ID:             id,
				Addr:           em.Addr(),
				Nodes:          cfg.Nodes,
				Epochs:         cfg.Epochs,
				PayloadBytes:   cfg.PayloadBytes,
				Timeout:        cfg.Timeout,
				SuspectTimeout: cfg.SuspectTimeout,
				Plan:           cfg.Plan,
				Telemetry:      cfg.Telemetry,
				Health:         cfg.Health,
				Tracer:         cfg.Tracer,
			})
		}(id)
	}
	wg.Wait()
	em.Close() // idempotent; normally the fabric already completed
	if err := <-serveErr; err != nil {
		return nil, err
	}
	for id, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("wire: node %d: %w", id, err)
		}
	}

	fs := &FaultStats{
		PlanHash:  cfg.Plan.Hash(),
		KillEpoch: -1, SuspectEpoch: -1, ConfirmEpoch: -1, SwitchEpoch: -1,
	}
	fs.Routed = em.Routed()
	fs.Dropped = em.Dropped()
	fs.GreyDropped = em.GreyDropped()
	var bits, bitErrs int64
	for _, st := range stats {
		fs.Nodes = append(fs.Nodes, *st)
		if st.Crashed || st.Ejected {
			continue
		}
		fs.Survivors++
		fs.Cells += st.Received
		bits += st.Bits
		bitErrs += st.BitErrors
	}
	if bits > 0 {
		fs.BER = float64(bitErrs) / float64(bits)
	}
	fs.ErrFree = fs.BER <= fecThreshold

	if err := fs.fillFailureView(cfg, stats); err != nil {
		return nil, err
	}
	return fs, nil
}

// fillFailureView derives the consensus failure record and the goodput
// split from the survivors' per-node views.
func (fs *FaultStats) fillFailureView(cfg PrototypeConfig, stats []*NodeStats) error {
	var consensus []PeerFailure
	first := true
	for _, st := range stats {
		if st.Crashed || st.Ejected {
			continue
		}
		// Consensus is asserted over full-timeline founders only: a node
		// that joined, drained, or rejoined mid-run legitimately holds a
		// partial failure view (its welcome trims it to its admission).
		if st.Drained || st.Rejoins > 0 || st.JoinedAt > 0 {
			continue
		}
		view := append([]PeerFailure(nil), st.Failures...)
		sort.Slice(view, func(i, j int) bool { return view[i].Peer < view[j].Peer })
		if first {
			consensus, first = view, false
			continue
		}
		if len(view) != len(consensus) {
			return fmt.Errorf("wire: survivors disagree on failures: node %d saw %d, others %d",
				st.Node, len(view), len(consensus))
		}
		for i := range view {
			if view[i] != consensus[i] {
				return fmt.Errorf("wire: survivors disagree on failure of node %d: %+v vs %+v",
					view[i].Peer, view[i], consensus[i])
			}
		}
	}
	fs.Failures = consensus
	if len(consensus) != 1 {
		return nil
	}

	f := consensus[0]
	fs.SuspectEpoch = f.SuspectEpoch
	fs.ConfirmEpoch = f.ConfirmEpoch
	fs.SwitchEpoch = f.SwitchEpoch
	fs.KillEpoch = f.SuspectEpoch - missThreshold
	fs.DetectEpochs = fs.ConfirmEpoch - fs.KillEpoch

	// Goodput split: mean received cells per survivor-epoch, normalized by
	// each regime's slot count.
	degradedLo, degradedHi := fs.KillEpoch, fs.SwitchEpoch
	compactLo, compactHi := fs.SwitchEpoch, cfg.Epochs
	var degSum, comSum float64
	var degN, comN int
	for _, st := range stats {
		if st.Crashed || st.Ejected || st.RxPerEpoch == nil {
			continue
		}
		for e := degradedLo; e < degradedHi && e < len(st.RxPerEpoch); e++ {
			degSum += float64(st.RxPerEpoch[e])
			degN++
		}
		for e := compactLo; e < compactHi && e < len(st.RxPerEpoch); e++ {
			comSum += float64(st.RxPerEpoch[e])
			comN++
		}
	}
	if degN > 0 {
		fs.DegradedGoodput = degSum / float64(degN) / float64(cfg.Nodes)
	}
	if comN > 0 {
		fs.CompactedGoodput = comSum / float64(comN) / float64(fs.Survivors)
	}
	return nil
}
