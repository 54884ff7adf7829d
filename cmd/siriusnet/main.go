// Command siriusnet runs the §6 prototype emulation over real TCP
// sockets: an AWGR emulator process routes wavelength-tagged frames
// between node loops that follow the static cyclic schedule and exchange
// PRBS test patterns, measuring the bit error rate end to end.
//
// Single-process (all roles in one process):
//
//	siriusnet [-nodes 4] [-epochs 1000] [-payload 64] [-flip 0]
//
// Multi-process (each role its own process, possibly on other hosts):
//
//	siriusnet -role awgr -nodes 4 -listen :9000 [-flip 0]
//	siriusnet -role node -id 0 -nodes 4 -connect host:9000 [-epochs 1000]
//	... one node process per id 0..nodes-1 ...
//
// -flip injects per-bit corruption (emulating operation below receiver
// sensitivity); the PRBS checkers must detect exactly that rate.
//
// Output batching: the emulator coalesces routed frames into one write
// per output port (-batch frames per write; 0 keeps the default, -batch 1
// restores per-frame writes). Coalescing only changes syscall boundaries
// — every counter, corruption decision and failure timeline is identical
// either way.
//
// Observability: -telemetry ADDR serves live /metrics (Prometheus text),
// /healthz (degraded while a failure is suspected, healthy once the
// fabric compacts) and /debug/vars for the duration of the run;
// -telemetry-hold keeps the endpoints up after the run completes until
// SIGINT, so external scrapers and smoke tests can poll a finished
// fabric. -trace-events FILE writes a Chrome trace_event JSON timeline
// (per-epoch spans, suspect/schedule-switch instants) loadable in
// Perfetto or chrome://tracing.
//
// Fault injection (§4.5): -faultplan loads a scripted, seeded plan of
// crashes, restarts, grey blackholes, BER degradations, and stalls
// (internal/fault JSON); -kill-node/-kill-epoch is shorthand for the
// common fail-stop case. All roles accept the same flags, so a
// multi-process run injects the same chaos as a single-process one, and
// the plan's content hash is printed so chaos runs can be named and
// replayed byte-identically (-seed fixes every random choice).
//
// Lifecycle operations: -drain-node/-drain-epoch script a cooperative
// zero-loss drain, -readd-epoch re-admits the drained node later, and
// -expand "node@epoch[,node@epoch...]" grows the fabric live (the
// joiner ids must be < -nodes; founders are the rest). These are
// shorthands for the corresponding plan events, so the same rule
// applies: in a multi-process run EVERY process — the emulator and all
// nodes, including the joiners and the drain victim — must receive the
// identical lifecycle flags, or the fabric's membership views diverge.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"sirius/internal/fault"
	"sirius/internal/telemetry"
	"sirius/internal/wire"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 4, "number of nodes (the paper's prototype uses 4)")
		epochs  = flag.Int("epochs", 1000, "epochs to run")
		payload = flag.Int("payload", 64, "PRBS payload bytes per cell")
		flip    = flag.Float64("flip", 0, "per-bit corruption probability")
		role    = flag.String("role", "", `"" = all-in-one, "awgr" = grating emulator, "node" = one node`)
		id      = flag.Int("id", 0, "node id for -role node")
		listen  = flag.String("listen", ":9000", "listen address for -role awgr")
		connect = flag.String("connect", "127.0.0.1:9000", "emulator address for -role node")

		batch = flag.Int("batch", 0, "emulator output batching: frames to coalesce per write (0 = default policy, 1 = per-frame writes)")

		planPath   = flag.String("faultplan", "", "JSON fault plan to inject (internal/fault format)")
		killNode   = flag.Int("kill-node", -1, "shorthand: fail-stop this node...")
		killEpoch  = flag.Int("kill-epoch", 0, "...at this fabric epoch")
		drainNode  = flag.Int("drain-node", -1, "shorthand: cooperatively drain this node...")
		drainEpoch = flag.Int("drain-epoch", 0, "...announcing at this fabric epoch (detaches at epoch+2, zero loss)")
		readdEpoch = flag.Int("readd-epoch", -1, "re-admit the drained node at this epoch (requires -drain-node)")
		expand     = flag.String("expand", "", `grow the fabric live: comma list of "node@epoch" joiners (ids < -nodes)`)
		seed       = flag.Uint64("seed", 42, "seed for every random choice (corruption substreams)")

		telAddr     = flag.String("telemetry", "", "serve live /metrics, /healthz and /debug/vars on this address (e.g. 127.0.0.1:9090)")
		telHold     = flag.Bool("telemetry-hold", false, "keep serving telemetry after the run completes, until SIGINT")
		traceEvents = flag.String("trace-events", "", "write a Chrome trace_event JSON timeline to this file")
	)
	flag.Parse()

	// Observability plane: one registry, health tracker and tracer for
	// whatever roles run in this process. The registry is the process
	// Default so role-specific code paths that fall back to it (and any
	// future expvar-style probes) land in the same place the HTTP server
	// scrapes.
	reg := telemetry.Default
	health := telemetry.NewHealth(256)
	var tracer *telemetry.Tracer // nil disables tracing (nil-safe everywhere)
	if *traceEvents != "" {
		tracer = telemetry.NewTracer(0)
	}
	var srv *telemetry.Server
	if *telAddr != "" {
		s, err := telemetry.NewServer(*telAddr, reg, health)
		if err != nil {
			fmt.Fprintf(os.Stderr, "siriusnet: telemetry: %v\n", err)
			os.Exit(2)
		}
		srv = s
		defer srv.Close()
		fmt.Printf("telemetry: serving /metrics and /healthz on http://%s\n", srv.Addr())
	}
	// flushObs writes the trace file and optionally holds the HTTP
	// endpoints open; call it right before a successful exit.
	flushObs := func() {
		if tracer != nil {
			if err := telemetry.WriteFileAtomic(*traceEvents, tracer.WriteJSON); err != nil {
				fmt.Fprintf(os.Stderr, "siriusnet: trace-events: %v\n", err)
			} else {
				fmt.Printf("trace events written to %s (%d dropped)\n", *traceEvents, tracer.Dropped())
			}
		}
		if srv != nil && *telHold {
			fmt.Printf("telemetry: holding http://%s until SIGINT\n", srv.Addr())
			ch := make(chan os.Signal, 1)
			signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
			<-ch
		}
	}

	plan, err := loadPlan(*planPath, *killNode, *killEpoch,
		*drainNode, *drainEpoch, *readdEpoch, *expand, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "siriusnet: %v\n", err)
		os.Exit(2)
	}
	if !plan.Empty() {
		fmt.Printf("fault plan %s: %d event(s), seed %d\n", plan.Hash(), len(plan.Events), plan.Seed)
	}

	switch *role {
	case "awgr":
		em, err := wire.NewEmulatorFault(*listen, *nodes, *flip, *seed, plan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "siriusnet: %v\n", err)
			os.Exit(1)
		}
		em.SetBatching(*batch)
		em.Instrument(reg, health)
		fmt.Printf("AWGR emulator: %d ports on %s (flip %g)\n", *nodes, em.Addr(), *flip)
		if err := em.Serve(); err != nil {
			fmt.Fprintf(os.Stderr, "siriusnet: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("done: routed %d frames", em.Routed())
		if d, g := em.Dropped(), em.GreyDropped(); d+g > 0 {
			fmt.Printf(" (dropped %d, grey-dropped %d)", d, g)
		}
		if r := em.Rejected(); r > 0 {
			fmt.Printf(", rejected %d connection(s)", r)
		}
		fmt.Println()
		flushObs()
		return
	case "node":
		st, err := wire.RunNode(wire.NodeConfig{
			ID:           *id,
			Addr:         *connect,
			Nodes:        *nodes,
			Epochs:       *epochs,
			PayloadBytes: *payload,
			Plan:         plan,
			Telemetry:    reg,
			Health:       health,
			Tracer:       tracer,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "siriusnet: node %d: %v\n", *id, err)
			os.Exit(1)
		}
		printNode(*st)
		flushObs()
		return
	case "":
		// All-in-one below.
	default:
		fmt.Fprintf(os.Stderr, "siriusnet: unknown role %q\n", *role)
		os.Exit(2)
	}

	fs, err := wire.RunPrototypeCfg(wire.PrototypeConfig{
		Nodes:        *nodes,
		Epochs:       *epochs,
		PayloadBytes: *payload,
		FlipProb:     *flip,
		Seed:         *seed,
		Plan:         plan,
		BatchFrames:  *batch,
		Telemetry:    reg,
		Health:       health,
		Tracer:       tracer,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "siriusnet: %v\n", err)
		os.Exit(1)
	}
	st := fs.Stats
	fmt.Printf("%-6s %10s %10s %10s %12s %12s  %s\n",
		"node", "sent", "received", "misrouted", "bit_errors", "BER", "fate")
	for _, n := range st.Nodes {
		fate := "ok"
		switch {
		case n.Crashed && n.Rejoins > 0:
			fate = "crashed, rejoined"
		case n.Crashed:
			fate = "crashed"
		case n.Ejected:
			fate = "ejected"
		case n.Drained && n.Rejoins > 0:
			fate = "drained, re-added"
		case n.Drained:
			fate = "drained (zero loss)"
		case n.JoinedAt > 0:
			fate = fmt.Sprintf("joined @%d", n.JoinedAt)
		case n.Reconnects > 0:
			fate = fmt.Sprintf("reconnected x%d", n.Reconnects)
		}
		fmt.Printf("%-6d %10d %10d %10d %12d %12.3g  %s\n",
			n.Node, n.Sent, n.Received, n.Misrouted, n.BitErrors, n.BER(), fate)
	}
	fmt.Printf("\nframes routed through AWGR emulator: %d\n", st.Routed)
	for _, f := range fs.Failures {
		fmt.Printf("failure of node %d: suspected @%d, confirmed @%d, schedule switch @%d\n",
			f.Peer, f.SuspectEpoch, f.ConfirmEpoch, f.SwitchEpoch)
	}
	if fs.SwitchEpoch >= 0 {
		fmt.Printf("slot utilization: degraded %.3f -> compacted %.3f\n",
			fs.DegradedGoodput, fs.CompactedGoodput)
	}
	fmt.Printf("aggregate BER (survivors): %.3g\n", st.BER)
	if st.ErrFree {
		fmt.Println("post-FEC: error-free (BER within the FEC budget)")
	} else {
		fmt.Println("post-FEC: NOT error-free")
	}
	flushObs()
}

// loadPlan assembles the fault plan from -faultplan and/or the
// -kill-node / -drain-node / -expand shorthands.
func loadPlan(path string, killNode, killEpoch, drainNode, drainEpoch, readdEpoch int,
	expand string, seed uint64) (*fault.Plan, error) {
	var plan *fault.Plan
	if path != "" {
		p, err := fault.Load(path)
		if err != nil {
			return nil, err
		}
		plan = p
	}
	add := func(e fault.Event) {
		if plan == nil {
			plan = &fault.Plan{Seed: seed}
		}
		plan.Events = append(plan.Events, e)
	}
	if killNode >= 0 {
		add(fault.Event{Kind: fault.Crash, Node: killNode, Epoch: killEpoch})
	}
	if drainNode >= 0 {
		add(fault.Event{Kind: fault.Drain, Node: drainNode, Epoch: drainEpoch})
		if readdEpoch >= 0 {
			add(fault.Event{Kind: fault.Readd, Node: drainNode, Epoch: readdEpoch})
		}
	} else if readdEpoch >= 0 {
		return nil, fmt.Errorf("-readd-epoch requires -drain-node")
	}
	if expand != "" {
		for _, spec := range strings.Split(expand, ",") {
			var node, epoch int
			if _, err := fmt.Sscanf(strings.TrimSpace(spec), "%d@%d", &node, &epoch); err != nil {
				return nil, fmt.Errorf("-expand: bad joiner %q (want \"node@epoch\"): %v", spec, err)
			}
			add(fault.Event{Kind: fault.Expand, Node: node, Epoch: epoch})
		}
	}
	if plan != nil && plan.Seed == 0 {
		plan.Seed = seed
	}
	return plan, nil
}

func printNode(st wire.NodeStats) {
	fmt.Printf("node %d: sent %d received %d misrouted %d BER %.3g reconnects %d\n",
		st.Node, st.Sent, st.Received, st.Misrouted, st.BER(), st.Reconnects)
	for _, f := range st.Failures {
		fmt.Printf("  observed failure of node %d: suspect @%d confirm @%d switch @%d\n",
			f.Peer, f.SuspectEpoch, f.ConfirmEpoch, f.SwitchEpoch)
	}
	if st.Crashed {
		fmt.Println("  executed scripted crash")
	}
	if st.Ejected {
		fmt.Println("  ejected by the fabric (confirmed failed)")
	}
	if st.Drained {
		fmt.Println("  completed planned drain (zero loss)")
	}
	if st.Rejoins > 0 {
		fmt.Printf("  re-admitted %d time(s)\n", st.Rejoins)
	}
	if st.JoinedAt > 0 {
		fmt.Printf("  joined the running fabric at epoch %d\n", st.JoinedAt)
	}
}
