package wire

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/health"
	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/schedule"
	"sirius/internal/telemetry"
)

// Defaults for NodeConfig's zero values.
const (
	defaultTimeout           = 10 * time.Second
	defaultSuspectTimeout    = 2 * time.Second
	defaultMissThreshold     = 3
	defaultReconnectAttempts = 8
	defaultReconnectBase     = 10 * time.Millisecond
	reconnectCap             = 640 * time.Millisecond
)

// fecThreshold is the pre-FEC bit error rate below which the KP4-class FEC
// assumed by the paper corrects everything: runs at or under it claim
// post-FEC error-free operation.
const fecThreshold = 2e-4

// NodeConfig configures one emulated node process.
type NodeConfig struct {
	ID           int
	Addr         string
	Nodes        int
	Epochs       int
	PayloadBytes int

	// Timeout is the rolling progress deadline: the node fails only after
	// this long with no frame received, no epoch transmitted, and no
	// reconnection — it rolls forward on progress instead of capping the
	// whole run. Default 10s.
	Timeout time.Duration

	// SuspectTimeout bounds how long the epoch gate waits for lagging
	// peers before judging them (health.Observer) and proceeding
	// optimistically. It is the wall-clock proxy for the paper's
	// epoch-scale silence detection. Default 2s.
	SuspectTimeout time.Duration

	// MissThreshold is how many consecutive silent epochs an observer
	// tolerates before suspecting a peer (§4.5). Default 3.
	MissThreshold int

	// Plan scripts this node's crash or restart, if any.
	Plan *fault.Plan

	// ReconnectAttempts and ReconnectBase shape the capped exponential
	// backoff used to re-register after a broken connection. Defaults: 8
	// attempts starting at 10ms, doubling, capped at 640ms.
	ReconnectAttempts int
	ReconnectBase     time.Duration

	// TrackEpochs records per-epoch received-cell counts in
	// NodeStats.RxPerEpoch (for goodput-over-time analysis).
	TrackEpochs bool

	// Telemetry receives this node's runtime counters (cells sent /
	// received / misrouted, bit errors, reconnects, suspicions,
	// schedule switches). Nil uses the process-wide telemetry.Default.
	Telemetry *telemetry.Registry

	// Health, when non-nil, tracks degraded conditions: a broken link
	// while reconnecting, and each suspected peer until the fabric-wide
	// schedule switch resolves it.
	Health *telemetry.Health

	// Tracer, when non-nil, records per-epoch spans and instants
	// (crash, suspicion, switch) for Chrome trace-event timelines.
	Tracer *telemetry.Tracer
}

// PeerFailure records one peer's detected failure as this node saw it:
// suspicion raised at SuspectEpoch, flood received fabric-wide by
// ConfirmEpoch, and the compacted schedule adopted at SwitchEpoch.
type PeerFailure struct {
	Peer         int
	SuspectEpoch int
	ConfirmEpoch int
	SwitchEpoch  int
}

// MemberChange records one applied membership switch as this node saw
// it: at Epoch the fabric recomputed its schedule because Node failed
// ("fail"), drained out ("leave"), or was admitted ("join"). Every
// survivor that witnessed the whole run records the identical sequence —
// the no-desync acceptance check.
type MemberChange struct {
	Epoch int
	Node  int
	Kind  string // "fail" | "leave" | "join"
}

// NodeStats summarizes one node's run.
type NodeStats struct {
	Node       int
	Sent       int
	Received   int
	Misrouted  int
	BitErrors  int64
	Bits       int64
	Reconnects int  // successful re-registrations
	Crashed    bool // this node executed a scripted Crash
	Ejected    bool // the fabric confirmed this node failed (grey victim)
	Drained    bool // this node completed a planned drain (zero-loss detach)
	Rejoins    int  // times re-admitted after a crash or drain
	JoinedAt   int  // epoch first admitted (0 for founders, the switch epoch for joiners)
	Failures   []PeerFailure
	Changes    []MemberChange // applied membership switches, in order
	RxPerEpoch []int          // per-epoch received cells (TrackEpochs only)
}

// BER returns the measured pre-FEC bit error rate.
func (s NodeStats) BER() float64 {
	if s.Bits == 0 {
		return 0
	}
	return float64(s.BitErrors) / float64(s.Bits)
}

// prbsSeed derives the per-cell PRBS seed from (src, dst, seq). Seeding
// every cell independently means a lost or reordered cell never
// desynchronizes the receiver's checker: each payload is verified against
// a stream both ends can regenerate from the header alone.
func prbsSeed(src, dst uint16, seq uint32) uint32 {
	s := rng.PointSeed(uint64(src)<<48|uint64(dst)<<32|uint64(seq), 0xce11)
	return uint32(s&0x7fffffff) | 1
}

// announcement is one lifecycle/failure fact being flooded: a suspicion,
// a join, or a planned drain, each with its agreed switch epoch.
type announcement struct {
	kind byte // annSuspect | annJoin | annDrain
	node int
	sw   int
}

const (
	annSuspect byte = iota
	annJoin
	annDrain
)

// node is the run state of one emulated node.
type node struct {
	cfg  NodeConfig
	mu   sync.Mutex
	cond *sync.Cond

	conn      net.Conn // guarded by mu
	gen       int      // connection generation; bumped by relink
	relinking bool     // a relink is in flight; others wait
	quietLink bool     // next relink is a planned detach/re-attach: no health condition

	heard       []int  // highest epoch heard from each original peer (-1 never)
	suspected   []bool // peer is suspected failed (locally or by flood)
	switchEpoch []int  // agreed schedule-switch epoch per suspected peer
	applied     []bool // peer's failure already folded into the schedule
	failures    []PeerFailure
	obs         *health.Observer

	// Membership state (the lifecycle plane). member is the applied
	// membership; joinAt/leaveAt are pending admissions/drains keyed by
	// their agreed switch epoch (-1 none), folded in by
	// applySwitchesLocked exactly like failure suspicions. joinDone and
	// leaveDone are once-per-plan guards (Validate allows one admission
	// and one drain per node). helloSeen tracks which scripted joiners
	// have announced themselves; the expansion gate holds until all of
	// an epoch's joiners have said hello.
	member     []bool
	joinAt     []int
	leaveAt    []int
	joinDone   []bool
	leaveDone  []bool
	helloSeen  []bool
	everMember bool

	// waitingHellos marks a gate held open for a scripted joiner's hello;
	// like dormancy it is legitimate planned idleness, so the watchdog
	// extends its leash while it is set.
	waitingHellos bool

	// [gapFrom, gapUntil) is this node's absence from the fabric: the
	// epochs it is not a member for, whose data cells it ignores. A
	// founder has none (gapFrom = MaxInt) and a joiner is absent from 0.
	// A scripted crash or drain opens the gap one epoch ahead, and the
	// first welcome to land closes it at its switch epoch. admitting
	// marks a welcome the transmit side has not yet taken up; one with
	// a smaller switch epoch may still replace it.
	gapFrom, gapUntil int
	admitting         bool

	// dormant marks the transmit side idle by plan: absent from the
	// fabric, waiting to be admitted or gone and reading it out.
	dormant bool

	base  schedule.Schedule // the full-fabric schedule Compact works from
	sched schedule.Schedule // current schedule (over the active members)
	live  []int             // compact index -> original node id
	myIdx int               // this node's index in the current schedule

	txDone   bool
	rxDone   bool
	fatalErr error

	progress atomic.Int64 // bumped on any rx frame / tx epoch / reconnect
	stats    NodeStats
	tel      nodeTel
}

// RunNode runs one node of the prototype fabric to completion and returns
// its statistics. It connects to the emulator, follows the cyclic
// schedule epoch by epoch — gated on having heard every live peer's
// previous epoch, so the fabric self-clocks — transmits per-cell-seeded
// PRBS payloads, verifies everything it receives, detects silent peers,
// floods suspicions piggybacked on data cells, and switches to a
// compacted schedule at the agreed epoch boundary.
func RunNode(cfg NodeConfig) (*NodeStats, error) {
	if cfg.Nodes < 2 || cfg.Nodes > maxPorts {
		return nil, fmt.Errorf("wire: need 2..%d nodes, got %d (the wavelength and handshake port fields are one byte; see docs/PROTOCOL.md)", maxPorts, cfg.Nodes)
	}
	if cfg.ID < 0 || cfg.ID >= cfg.Nodes {
		return nil, fmt.Errorf("wire: node id %d out of range [0,%d)", cfg.ID, cfg.Nodes)
	}
	if cfg.PayloadBytes < 1 {
		return nil, fmt.Errorf("wire: need >= 1 payload byte")
	}
	if cfg.Epochs < 1 {
		cfg.Epochs = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = defaultTimeout
	}
	if cfg.SuspectTimeout <= 0 {
		cfg.SuspectTimeout = defaultSuspectTimeout
	}
	if cfg.MissThreshold <= 0 {
		cfg.MissThreshold = defaultMissThreshold
	}
	if cfg.ReconnectAttempts <= 0 {
		cfg.ReconnectAttempts = defaultReconnectAttempts
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = defaultReconnectBase
	}

	if joiners := cfg.Plan.Joiners(); cfg.Nodes-len(joiners) < 2 {
		return nil, fmt.Errorf("wire: only %d initial members (need >= 2): %d of %d nodes join late",
			cfg.Nodes-len(joiners), len(joiners), cfg.Nodes)
	}
	if err := validateLifecycleHorizon(cfg); err != nil {
		return nil, err
	}
	n, err := newNode(cfg)
	if err != nil {
		return nil, err
	}

	conn, err := dialRegister(cfg, 0)
	if err != nil {
		return nil, err
	}
	n.conn = conn

	stop := make(chan struct{})
	defer close(stop)
	go n.watchdog(stop)
	go n.rxLoop()

	if err := n.txLoop(); err != nil {
		n.fail(err)
	}

	// Wait for the receive side to drain to EOF (the emulator closes all
	// connections once the whole fabric has completed).
	n.mu.Lock()
	for !n.rxDone && n.fatalErr == nil {
		n.cond.Wait()
	}
	err = n.fatalErr
	n.stats.Failures = append([]PeerFailure(nil), n.failures...)
	stats := n.stats
	n.mu.Unlock()
	if err != nil {
		return &stats, err
	}
	return &stats, nil
}

// newNode builds a node's run state from a defaulted configuration:
// founders are members from epoch 0 on the full schedule, and scripted
// joiners start dormant, absent from epoch 0.
func newNode(cfg NodeConfig) (*node, error) {
	base, err := schedule.NewGrouped(cfg.Nodes, cfg.Nodes, 1)
	if err != nil {
		return nil, err
	}
	obs, err := health.NewObserver(cfg.Nodes, cfg.MissThreshold)
	if err != nil {
		return nil, err
	}
	n := &node{
		cfg:         cfg,
		heard:       make([]int, cfg.Nodes),
		suspected:   make([]bool, cfg.Nodes),
		switchEpoch: make([]int, cfg.Nodes),
		applied:     make([]bool, cfg.Nodes),
		obs:         obs,
		member:      make([]bool, cfg.Nodes),
		joinAt:      make([]int, cfg.Nodes),
		leaveAt:     make([]int, cfg.Nodes),
		joinDone:    make([]bool, cfg.Nodes),
		leaveDone:   make([]bool, cfg.Nodes),
		helloSeen:   make([]bool, cfg.Nodes),
		gapFrom:     math.MaxInt,
		gapUntil:    math.MaxInt,
		base:        base,
		stats:       NodeStats{Node: cfg.ID},
	}
	n.cond = sync.NewCond(&n.mu)
	n.tel = newNodeTel(cfg)
	for i := range n.heard {
		n.heard[i] = -1
		n.switchEpoch[i] = -1
		n.joinAt[i] = -1
		n.leaveAt[i] = -1
		n.member[i] = true
	}
	for _, j := range cfg.Plan.Joiners() {
		n.member[j] = false
	}
	n.everMember = n.member[cfg.ID]
	if !n.everMember {
		n.dormant, n.gapFrom = true, 0
	}
	if err := n.rebuildScheduleLocked(); err != nil {
		return nil, err
	}
	if cfg.TrackEpochs {
		n.stats.RxPerEpoch = make([]int, cfg.Epochs)
	}
	return n, nil
}

// validateLifecycleHorizon rejects plans whose lifecycle switch epochs
// land at or beyond the run horizon: an admission that can never be
// applied leaves a dormant node waiting forever, and a drain that never
// switches is a silent no-op. (Rejoin switch epochs are proposal-time
// dependent; epoch+2 is the earliest they can land, so the check is a
// necessary floor — plans should leave extra headroom.)
func validateLifecycleHorizon(cfg NodeConfig) error {
	for node := 0; node < cfg.Nodes; node++ {
		for _, ev := range []struct {
			kind  string
			epoch int
		}{
			{"expand", cfg.Plan.ExpandEpoch(node)},
			{"drain", cfg.Plan.DrainEpoch(node)},
			{"rejoin", cfg.Plan.RejoinEpoch(node)},
		} {
			if ev.epoch >= 0 && ev.epoch+2 >= cfg.Epochs {
				return fmt.Errorf("wire: %s of node %d switches at epoch %d, at or past the run's %d epochs",
					ev.kind, node, ev.epoch+2, cfg.Epochs)
			}
		}
	}
	return nil
}

// dialRegister connects to the emulator and performs the handshake.
// flags carries HsReRegister on reconnections.
func dialRegister(cfg NodeConfig, flags uint8) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", cfg.Addr, cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: node %d: %w", cfg.ID, err)
	}
	h := EncodeHandshake(cfg.ID, flags)
	if _, err := conn.Write(h[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: node %d: handshake: %w", cfg.ID, err)
	}
	var reply [hsReplyLen]byte
	conn.SetReadDeadline(time.Now().Add(cfg.Timeout))
	if _, err := io.ReadFull(conn, reply[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: node %d: handshake reply: %w", cfg.ID, err)
	}
	conn.SetReadDeadline(time.Time{})
	if reply[0] != HsOK {
		conn.Close()
		return nil, fmt.Errorf("wire: node %d: emulator rejected registration: %s",
			cfg.ID, hsStatusString(reply[0]))
	}
	return conn, nil
}

// fail records a fatal error (once), closes the connection so blocked
// reads unwind, and wakes every waiter.
func (n *node) fail(err error) {
	n.mu.Lock()
	if n.fatalErr == nil && err != nil {
		n.fatalErr = err
	}
	if n.conn != nil {
		n.conn.Close()
	}
	n.cond.Broadcast()
	n.mu.Unlock()
}

// watchdog enforces the rolling progress deadline: three consecutive
// windows of Timeout/3 with no progress — no frame received, no epoch
// sent, no reconnection — fail the node. Any progress resets the clock,
// so a long run never needs an absolute deadline sized in advance.
func (n *node) watchdog(stop chan struct{}) {
	tick := n.cfg.Timeout / 3
	if tick <= 0 {
		tick = time.Second
	}
	last := n.progress.Load()
	strikes := 0
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		n.mu.Lock()
		done := n.rxDone && n.txDone
		patient := n.dormant || n.waitingHellos
		n.mu.Unlock()
		if done {
			return
		}
		if now := n.progress.Load(); now != last {
			last, strikes = now, 0
			continue
		}
		// A dormant node (awaiting its welcome, or gone and reading out
		// the fabric), or a member holding a gate for a scripted joiner's
		// hello, is legitimately idle: leash it at 10x the normal budget
		// instead of 1x, so planned lifecycle waits survive while a truly
		// wedged fabric still fails.
		limit := 3
		if patient {
			limit = 30
		}
		strikes++
		if strikes >= limit {
			n.fail(fmt.Errorf("wire: node %d: no progress for %v", n.cfg.ID,
				time.Duration(limit)*tick))
			return
		}
	}
}

// relink replaces a broken connection with capped exponential backoff and
// an HsReRegister handshake. failedGen identifies the connection the
// caller saw fail; if another goroutine already replaced it, relink
// returns immediately. On permanent failure the node fails.
func (n *node) relink(failedGen int) error {
	n.mu.Lock()
	for n.relinking {
		// Another goroutine (tx vs rx) observed the same failure first;
		// wait for its verdict rather than double-dialing.
		n.cond.Wait()
	}
	if n.gen != failedGen {
		n.mu.Unlock()
		return nil // already replaced
	}
	if n.fatalErr != nil {
		err := n.fatalErr
		n.mu.Unlock()
		return err
	}
	n.relinking = true
	// A planned detach/re-attach (drain cycle) is not an incident: skip
	// the degraded-health condition so /healthz stays green through it.
	quiet := n.quietLink
	if n.conn != nil {
		n.conn.Close()
		n.conn = nil
	}
	n.mu.Unlock()
	if !quiet {
		n.tel.health.SetCondition(n.tel.linkKey(), "link down; reconnecting")
	}
	defer func() {
		n.mu.Lock()
		n.relinking = false
		n.cond.Broadcast()
		n.mu.Unlock()
	}()

	backoff := n.cfg.ReconnectBase
	var lastErr error
	for attempt := 0; attempt < n.cfg.ReconnectAttempts; attempt++ {
		conn, err := dialRegister(n.cfg, HsReRegister)
		if err == nil {
			n.mu.Lock()
			n.conn = conn
			n.gen++
			n.stats.Reconnects++
			n.quietLink = false
			// Forgive the gap our own outage created: peers transmitted
			// while we were deaf, so judging them by pre-outage hearsay
			// would manufacture false suspicions.
			n.progress.Add(1)
			n.cond.Broadcast()
			n.mu.Unlock()
			n.tel.reconnects.Inc()
			if !quiet {
				n.tel.health.ClearCondition(n.tel.linkKey())
			}
			n.tel.tracer.Instant("reconnect", "wire.node", n.cfg.ID, nil)
			return nil
		}
		lastErr = err
		time.Sleep(backoff)
		if backoff *= 2; backoff > reconnectCap {
			backoff = reconnectCap
		}
	}
	err := fmt.Errorf("wire: node %d: reconnect failed after %d attempts: %w",
		n.cfg.ID, n.cfg.ReconnectAttempts, lastErr)
	n.fail(err)
	return err
}

// currentConn snapshots the connection and its generation.
func (n *node) currentConn() (net.Conn, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conn, n.gen
}

// ---- Transmit side ----

// txLoop drives the scheduled epochs: gate, transmit, flush. A scripted
// crash, flap or drain leaves the fabric through depart at the top of its
// epoch, as do an ejection and the run's normal end; a joiner, and a node
// scripted back after a crash or drain, waits until a welcome admits it.
func (n *node) txLoop() error {
	me := n.cfg.ID
	plan := n.cfg.Plan
	crashAt, flapAt, rejoinAt := plan.CrashEpoch(me), plan.FlapEpoch(me), plan.RejoinEpoch(me)
	detachAt := -1
	if d := plan.DrainEpoch(me); d >= 0 {
		// The drain is announced at d (gate d proposes switch epoch d+2);
		// the node transmits epochs [0, d+2) and detaches at d+2.
		detachAt = d + 2
	}

	payload := make([]byte, n.cfg.PayloadBytes)
	prbs := phy.NewPRBS(1)
	encodeBuf := make([]byte, 0, frameHeader+cell.HeaderLen+n.cfg.PayloadBytes)

	conn, gen := n.currentConn()
	bw := bufio.NewWriterSize(conn, 64<<10)
	n.mu.Lock()
	absent := n.dormant
	n.mu.Unlock()
	if absent {
		// Expansion joiner: announce attachment to the fabric, then wait
		// to be welcomed in at an agreed switch epoch.
		if err := n.announceHello(bw, conn); err != nil {
			return err
		}
	}

	g := 0
	for {
		if absent {
			s, err := n.awaitAdmission()
			if err != nil {
				return err
			}
			g, absent = s, false
		}
		if g >= n.cfg.Epochs {
			return n.depart(g, true, false)
		}
		if g+1 == crashAt || g+1 == detachAt {
			// Membership ends at g+1. Open the gap before epoch g goes
			// out: a member replies to it — with later cells, or with a
			// welcome back — only after hearing it.
			n.mu.Lock()
			n.openGapLocked(g + 1)
			n.mu.Unlock()
		}
		if g == crashAt || g == flapAt || g == detachAt {
			flap := g == flapAt
			back := flap || rejoinAt >= 0
			event := "flap"
			n.mu.Lock()
			switch g {
			case crashAt:
				// Fail-stop: no farewell. The peers notice from silence
				// alone.
				event = "crash"
				n.stats.Crashed = true
			case detachAt:
				// The fabric agreed (at gate detachAt-2) to stop
				// scheduling us from this epoch. The plan's drain is
				// consumed here: a re-added node must not re-propose it
				// (it detached before applying its own leave). A
				// planned cycle is not an incident, so it relinks
				// quietly.
				event = "drain-detach"
				n.stats.Drained = true
				n.leaveDone[me] = true
				n.quietLink = true
			}
			n.mu.Unlock()
			n.tel.tracer.Instant(event, "wire.node", me, nil)
			if err := n.depart(g, flap, back); err != nil || !back {
				return err
			}
			conn, gen = n.currentConn()
			bw.Reset(conn)
			if !flap {
				absent = true
				continue
			}
		}

		epochStart := time.Now()
		ejected, err := n.gate(g)
		if err != nil {
			return err
		}
		if ejected {
			// The fabric has compacted us out; stop transmitting.
			return n.depart(g, false, false)
		}
		n.tel.epoch.SetInt(int64(g))

		if err := n.sendEpoch(g, bw, conn, prbs, payload, &encodeBuf); err != nil {
			// One broken pipe does not end the run: re-register and move
			// on to the next epoch (this epoch's remaining cells are the
			// documented in-flight loss of a link failure).
			if rerr := n.relink(gen); rerr != nil {
				return rerr
			}
			conn, gen = n.currentConn()
			bw.Reset(conn)
		}
		n.tel.tracer.Span("epoch", "wire.node", n.cfg.ID, epochStart, nil)
		n.progress.Add(1)
		g++
	}
}

// depart takes the node off the fabric at the boundary before epoch s.
// It is the one way out, for a crash, a flap, a drain, an ejection and
// the run's normal end alike, in three steps:
//
//  1. Wait, as gate does, until every live member's epoch s-1 has
//     arrived. By per-pair FIFO through the grating, nothing sent to
//     this node before s is then still in flight.
//  2. Half-close, so the emulator reads this input to its end (EOF) and
//     every receiver hears the last epoch sent. A full Close with
//     unread input would be answered with a TCP reset that drops
//     whatever was still queued.
//  3. With back set, wait until the receive side has read the old
//     connection to EOF — the emulator retires it there and parks the
//     port's frames — and re-registered. Without it, the receive side
//     keeps reading until the fabric closes; a node that has left
//     ignores what arrives.
//
// Unless member is set (a flap, or the run's end), the node is absent
// from s on and turns dormant.
func (n *node) depart(s int, member, back bool) error {
	n.mu.Lock()
	if !member {
		n.openGapLocked(s)
		n.dormant = true
	}
	if err := n.awaitEpochLocked(s); err != nil {
		n.mu.Unlock()
		return err
	}
	c, gen := n.conn, n.gen
	if !back {
		n.txDone = true
		n.cond.Broadcast()
	}
	n.mu.Unlock()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	if !back {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.gen == gen && n.fatalErr == nil {
		n.cond.Wait()
	}
	return n.fatalErr
}

// openGapLocked starts this node's absence at epoch s, unless it already
// has (a welcome may since have closed it). Called with n.mu held.
func (n *node) openGapLocked(s int) {
	if n.gapFrom != s {
		n.gapFrom, n.gapUntil = s, math.MaxInt
	}
}

// announceHello sends one hello control cell to every other port: the
// not-yet-admitted joiner's only permitted transmission. The emulator
// parks frames for ports that register later, so hellos survive any
// start order; dormant receivers record them too, so a joiner admitted
// first still knows about a joiner admitted later.
func (n *node) announceHello(bw *bufio.Writer, conn net.Conn) error {
	me := n.cfg.ID
	conn.SetWriteDeadline(time.Now().Add(n.cfg.Timeout))
	defer conn.SetWriteDeadline(time.Time{})
	var encodeBuf []byte
	for p := 0; p < n.cfg.Nodes; p++ {
		if p == me {
			continue
		}
		c := cell.Cell{
			Kind:  cell.KindControl,
			Flags: cell.FlagHello,
			Src:   uint16(me),
			Dst:   uint16(p),
		}
		w := uint8((p - me + n.cfg.Nodes) % n.cfg.Nodes)
		encodeBuf = appendFrame(encodeBuf[:0], w, &c)
		if _, err := bw.Write(encodeBuf); err != nil {
			return fmt.Errorf("wire: node %d: hello: %w", me, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("wire: node %d: hello flush: %w", me, err)
	}
	n.tel.tracer.Instant("hello", "wire.node", me, nil)
	return nil
}

// awaitAdmission blocks an absent node until a welcome, installed where
// it lands on the receive path, has closed its gap, and returns the
// welcome's switch epoch S: the epoch at which to start transmitting.
func (n *node) awaitAdmission() (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.gapUntil == math.MaxInt && n.fatalErr == nil {
		n.cond.Wait()
	}
	if n.fatalErr != nil {
		return 0, n.fatalErr
	}
	n.dormant, n.admitting = false, false
	return n.gapUntil, nil
}

// admitLocked installs a welcome addressed to this node, sent by member
// from in epoch ep: the membership bitmap as of switch epoch s, the
// schedule compacted over it, and the end of the node's absence at s. It
// runs on the receive path, and each member's welcome reaches this node
// before that member's first cell to it (per-pair FIFO through the
// grating), so every cell of epoch s or later is counted.
//
// A node admitted at the same epoch sends no welcome, so the first gate
// waits for the sender's welcome of epoch s-1: the sender wrote its
// welcomes to every pending joiner in earlier epochs, so they are ahead
// of this node's first cell to any of them. Called with n.mu held.
func (n *node) admitLocked(s int, bitmap []byte, from, ep int) {
	for p := 0; p < n.cfg.Nodes; p++ {
		n.member[p] = p/8 < len(bitmap) && bitmap[p/8]&(1<<(p%8)) != 0
		// Every node in the welcomed membership is, by the welcome's own
		// construction, scheduled through epoch s-1.
		n.heard[p] = s - 1
		n.suspected[p] = false
		n.applied[p] = false
		n.switchEpoch[p] = -1
		n.joinAt[p] = -1
		n.leaveAt[p] = -1
		n.obs.Forgive(p)
	}
	// The sender is the one member whose epoch s-1 the first gate waits
	// for (see above).
	n.heard[from] = ep
	// Drop suspicion records that never reached their switch: the
	// welcomed membership already reflects every resolved failure, and
	// re-flooding a pre-detach suspicion could poison the new epoch.
	kept := n.failures[:0]
	for _, f := range n.failures {
		if f.SwitchEpoch <= s {
			kept = append(kept, f)
		}
	}
	n.failures = kept
	if n.gapUntil == math.MaxInt {
		if n.everMember {
			n.stats.Rejoins++
		}
		n.everMember = true
	}
	if n.stats.Rejoins == 0 {
		n.stats.JoinedAt = s
	}
	n.gapUntil, n.admitting = s, true
	if err := n.rebuildScheduleLocked(); err != nil && n.fatalErr == nil {
		n.fatalErr = err
	}
	n.progress.Add(1)
	n.tel.tracer.Instant("welcome", "wire.node", n.cfg.ID, nil)
}

// sendEpoch transmits epoch g's slots under the current schedule, then
// any welcome control cells owed to pending joiners. Welcomes are control
// cells: they do not count toward Sent/Received, so the data-cell
// accounting identities stay exact across lifecycle operations.
func (n *node) sendEpoch(g int, bw *bufio.Writer, conn net.Conn,
	prbs *phy.PRBS, payload []byte, encodeBuf *[]byte) error {

	n.mu.Lock()
	sched, live, myIdx := n.sched, n.live, n.myIdx
	anns := n.activeAnnouncementsLocked(g)
	welcomes := n.pendingWelcomesLocked(g)
	n.mu.Unlock()

	conn.SetWriteDeadline(time.Now().Add(n.cfg.Timeout))
	defer conn.SetWriteDeadline(time.Time{})

	slots := sched.SlotsPerEpoch()
	sent := 0
	for slot := 0; slot < slots; slot++ {
		dstOrig := live[sched.Dst(myIdx, 0, slot)]
		// The grating wavelength is schedule-independent: wavelength w on
		// input i exits on output (i+w) mod N, so reaching dstOrig always
		// takes w = dstOrig - src mod N, whichever schedule chose it.
		w := uint8((dstOrig - n.cfg.ID + n.cfg.Nodes) % n.cfg.Nodes)
		seq := uint32(g)<<8 | uint32(slot)
		c := cell.Cell{
			Kind: cell.KindData,
			Src:  uint16(n.cfg.ID),
			Dst:  uint16(dstOrig),
			Seq:  seq,
		}
		if len(anns) > 0 {
			// Rotate by epoch as well as slot: a destination sits at the
			// same slot every epoch, so a fixed slot%k assignment would
			// show it the same announcement each flood epoch and starve
			// it of the others.
			a := anns[(slot+g)%len(anns)]
			switch a.kind {
			case annSuspect:
				c.SetSuspicion(a.node, a.sw)
			case annJoin:
				c.SetJoin(a.node, a.sw)
			case annDrain:
				c.SetDrain(a.node, a.sw)
			}
		}
		prbs.Reset(prbsSeed(c.Src, c.Dst, seq))
		prbs.Fill(payload)
		c.Payload = payload
		// Assemble the whole wire frame — header and encoded cell — in
		// the reusable buffer and hand it to the writer in one call.
		*encodeBuf = appendFrame((*encodeBuf)[:0], w, &c)
		if _, err := bw.Write(*encodeBuf); err != nil {
			n.addSent(sent)
			return err
		}
		sent++
		n.tel.sent.Inc()
	}
	n.addSent(sent)
	for _, wm := range welcomes {
		c := cell.Cell{
			Kind: cell.KindControl,
			Src:  uint16(n.cfg.ID),
			Dst:  uint16(wm.node),
			Seq:  uint32(g) << 8,
		}
		c.SetJoin(wm.node, wm.sw)
		c.Payload = wm.members
		w := uint8((wm.node - n.cfg.ID + n.cfg.Nodes) % n.cfg.Nodes)
		*encodeBuf = appendFrame((*encodeBuf)[:0], w, &c)
		if _, err := bw.Write(*encodeBuf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// addSent batches the epoch's Sent accounting into one mutex hold
// instead of a lock/unlock pair per cell.
func (n *node) addSent(sent int) {
	if sent == 0 {
		return
	}
	n.mu.Lock()
	n.stats.Sent += sent
	n.mu.Unlock()
}

// activeAnnouncementsLocked returns every fact still being flooded at
// epoch g: suspicions, pending admissions, and pending drains whose
// agreed switch epoch has not yet passed. Called with n.mu held.
func (n *node) activeAnnouncementsLocked(g int) []announcement {
	var out []announcement
	for _, f := range n.failures {
		if f.SwitchEpoch > g {
			out = append(out, announcement{kind: annSuspect, node: f.Peer, sw: f.SwitchEpoch})
		}
	}
	for p := 0; p < n.cfg.Nodes; p++ {
		if n.joinAt[p] > g {
			out = append(out, announcement{kind: annJoin, node: p, sw: n.joinAt[p]})
		}
		if n.leaveAt[p] > g {
			out = append(out, announcement{kind: annDrain, node: p, sw: n.leaveAt[p]})
		}
	}
	return out
}

// welcomeMsg is one welcome control cell owed to a pending joiner: the
// agreed switch epoch and the projected membership bitmap as of it.
type welcomeMsg struct {
	node, sw int
	members  []byte
}

// pendingWelcomesLocked returns the welcomes to emit during epoch g: one
// per pending admission whose switch epoch has not yet arrived. Every
// member sends a welcome in each flood epoch, so a joiner hears one even
// under grey loss toward some members. Called with n.mu held.
func (n *node) pendingWelcomesLocked(g int) []welcomeMsg {
	var out []welcomeMsg
	for j := 0; j < n.cfg.Nodes; j++ {
		if j == n.cfg.ID || n.joinAt[j] <= g {
			continue // no pending admission (joinAt -1), or already due
		}
		out = append(out, welcomeMsg{
			node:    j,
			sw:      n.joinAt[j],
			members: n.projectedMembersLocked(n.joinAt[j]),
		})
	}
	return out
}

// projectedMembersLocked returns the membership bitmap as it will stand
// at switch epoch s: pending failures and drains due by s removed,
// pending admissions due by s included. One bit per port, LSB-first
// within each byte. Called with n.mu held.
func (n *node) projectedMembersLocked(s int) []byte {
	bits := make([]byte, (n.cfg.Nodes+7)/8)
	for p := 0; p < n.cfg.Nodes; p++ {
		in := n.member[p]
		if n.suspected[p] && n.switchEpoch[p] >= 0 && n.switchEpoch[p] <= s {
			in = false
		}
		if n.leaveAt[p] >= 0 && n.leaveAt[p] <= s {
			in = false
		}
		if n.joinAt[p] >= 0 && n.joinAt[p] <= s {
			in = true
		}
		if in {
			bits[p/8] |= 1 << (p % 8)
		}
	}
	return bits
}

// gate blocks until the node may transmit epoch g. Epoch g-1 is over
// once every member of g-1 has delivered it — a node leaving at g
// included, so the fabric never runs ahead of a departure
// (awaitEpochLocked). gate then applies the switches due at g
// (suspicions, admissions and drains whose switch epoch has arrived),
// compacting the schedule over the members, and reports ejection if this
// node is itself the confirmed victim. Last, it raises the epoch's
// lifecycle proposals and holds until every scripted joiner due by g
// has said hello.
func (n *node) gate(g int) (ejected bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()

	if err := n.awaitEpochLocked(g); err != nil {
		return false, err
	}
	if ej, err := n.applySwitchesLocked(g); ej || err != nil {
		return ej, err
	}
	for n.proposeLifecycleLocked(g) {
		if n.fatalErr != nil {
			return false, n.fatalErr
		}
		n.waitingHellos = true
		n.cond.Wait()
	}
	n.waitingHellos = false
	return false, nil
}

// awaitEpochLocked blocks until epoch g-1 has arrived from every live,
// unsuspected member, this node included: the self-loop slot through
// the grating proves the node's own link works. Both gate and depart
// wait here.
//
// The wait has an absolute deadline of SuspectTimeout, advanced by
// nothing, so a chatty subset of peers cannot postpone judgement of a
// silent one. At the deadline each lagging peer is judged by the
// gap-based health.Observer: a peer silent for MissThreshold consecutive
// epochs is suspected, the suspicion is recorded for flooding with an
// agreed switch epoch g+2 (one epoch to flood, one to align), and the
// wait ends either way. Called with n.mu held.
func (n *node) awaitEpochLocked(g int) error {
	deadline := time.Now().Add(n.cfg.SuspectTimeout)
	timer := time.AfterFunc(n.cfg.SuspectTimeout, func() {
		n.mu.Lock()
		n.mu.Unlock() //nolint:staticcheck // lock/unlock pairs the broadcast with waiters
		n.cond.Broadcast()
	})
	defer timer.Stop()

	for {
		if n.fatalErr != nil {
			return n.fatalErr
		}
		lagging := n.laggingLocked(g)
		if len(lagging) == 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			// Judge the laggards; suspect those over threshold, then pass.
			for _, p := range lagging {
				if !n.obs.Judge(p, n.heard[p], g) {
					continue
				}
				if p == n.cfg.ID {
					return fmt.Errorf(
						"wire: node %d: own transmissions not returning (link dead beyond epoch %d)",
						n.cfg.ID, n.heard[p])
				}
				n.recordSuspicionLocked(p, g, g+2, false)
			}
			return nil
		}
		n.cond.Wait()
	}
}

// proposeLifecycleLocked raises this gate's due lifecycle proposals from
// the shared plan — every member evaluates the same plan against the same
// (epoch-deterministic) membership state, so proposals need no
// coordinator. It returns whether the gate must hold for a scripted
// joiner that has not yet said hello. Called with n.mu held.
func (n *node) proposeLifecycleLocked(g int) (hellosPending bool) {
	plan := n.cfg.Plan
	// Scripted expansions: admit joiner j at the plan-anchored switch
	// epoch E+2 once it has announced itself. Anchoring to the plan (not
	// the proposal gate) keeps the switch epoch identical across members
	// no matter when each one heard the hello.
	for _, j := range plan.Joiners() {
		e := plan.ExpandEpoch(j)
		if e > g || n.member[j] || n.joinAt[j] >= 0 || n.joinDone[j] {
			continue
		}
		if !n.helloSeen[j] {
			hellosPending = true
			continue
		}
		n.recordJoinLocked(j, e+2)
	}
	// Scripted rejoins (restart after crash, re-add after drain): the
	// switch epoch is g+2 from the first gate at which the node is
	// scripted back AND actually out of the membership. Membership
	// evolves identically on every member, so that gate — and hence the
	// switch epoch — is the same fabric-wide; a freshly welcomed joiner
	// that proposes one epoch late converges via the flooded minimum.
	for p := 0; p < n.cfg.Nodes; p++ {
		if p == n.cfg.ID {
			continue
		}
		if e := plan.RejoinEpoch(p); e >= 0 && e <= g && !n.member[p] &&
			n.joinAt[p] < 0 && !n.joinDone[p] {
			n.recordJoinLocked(p, g+2)
		}
	}
	// Planned drains are proposed by every member from the plan (the
	// draining node included), anchored at DrainEpoch+2; the flooded
	// drain announcement is redundancy for the same fact.
	for p := 0; p < n.cfg.Nodes; p++ {
		if d := plan.DrainEpoch(p); d >= 0 && d <= g && n.member[p] &&
			n.leaveAt[p] < 0 && !n.leaveDone[p] {
			n.recordLeaveLocked(p, d+2)
		}
	}
	return hellosPending
}

// recordJoinLocked registers an agreed admission of node j at switch
// epoch sw, converging on the minimum exactly like suspicions. Called
// with n.mu held.
func (n *node) recordJoinLocked(j, sw int) {
	if n.member[j] || n.joinDone[j] {
		return
	}
	if n.joinAt[j] >= 0 && n.joinAt[j] <= sw {
		return
	}
	n.joinAt[j] = sw
	n.cond.Broadcast()
}

// recordLeaveLocked registers an agreed planned drain of node d at switch
// epoch sw. Called with n.mu held.
func (n *node) recordLeaveLocked(d, sw int) {
	if !n.member[d] || n.leaveDone[d] {
		return
	}
	if n.leaveAt[d] >= 0 && n.leaveAt[d] <= sw {
		return
	}
	n.leaveAt[d] = sw
	n.cond.Broadcast()
}

// laggingLocked lists the unsuspected members not yet heard at epoch
// g-1. Called with n.mu held.
func (n *node) laggingLocked(g int) []int {
	var out []int
	for p := 0; p < n.cfg.Nodes; p++ {
		if !n.member[p] || n.suspected[p] {
			continue
		}
		if n.heard[p] < g-1 {
			out = append(out, p)
		}
	}
	return out
}

// recordSuspicionLocked registers a (possibly adopted) suspicion of peer
// p with the given suspect epoch and agreed switch epoch. If the peer was
// already suspected with a later switch epoch, the earlier one wins, so
// concurrent independent detections converge on the minimum. adopted
// distinguishes suspicions learned from a flooded cell from those this
// node raised by judging silence itself. Called with n.mu held.
func (n *node) recordSuspicionLocked(p, suspectEpoch, sw int, adopted bool) {
	if n.suspected[p] && n.switchEpoch[p] <= sw {
		return
	}
	if !n.suspected[p] {
		// First time this node suspects p: count it, flag the fabric
		// degraded until the schedule switch resolves the failure, and
		// drop a timeline marker.
		if adopted {
			n.tel.suspAdopted.Inc()
		} else {
			n.tel.suspRaised.Inc()
		}
		n.tel.health.SetCondition(n.tel.peerKey(p), "peer suspected failed")
		n.tel.tracer.Instant("suspect", "wire.node", n.cfg.ID, nil)
	}
	n.suspected[p] = true
	n.switchEpoch[p] = sw
	f := PeerFailure{Peer: p, SuspectEpoch: suspectEpoch, ConfirmEpoch: sw - 1, SwitchEpoch: sw}
	for i := range n.failures {
		if n.failures[i].Peer == p {
			n.failures[i] = f
			n.cond.Broadcast()
			return
		}
	}
	n.failures = append(n.failures, f)
	n.cond.Broadcast()
}

// applySwitchesLocked folds every agreed membership change whose switch
// epoch has arrived into the schedule: failures (§4.5 compaction),
// planned leaves, and admissions, all on the same fabric-wide epoch
// boundary. Called with n.mu held.
func (n *node) applySwitchesLocked(g int) (ejected bool, err error) {
	changed := false
	for p := 0; p < n.cfg.Nodes; p++ {
		if n.suspected[p] && !n.applied[p] && n.switchEpoch[p] <= g {
			n.applied[p] = true
			changed = true
			// The switch resolves the suspicion: the fabric has agreed
			// on the failure and routes around it from here on.
			n.tel.health.ClearCondition(n.tel.peerKey(p))
			if n.member[p] {
				n.member[p] = false
				n.noteChangeLocked(n.switchEpoch[p], p, "fail")
			}
		}
	}
	for p := 0; p < n.cfg.Nodes; p++ {
		if n.leaveAt[p] >= 0 && n.leaveAt[p] <= g {
			if n.member[p] {
				n.member[p] = false
				n.noteChangeLocked(n.leaveAt[p], p, "leave")
				changed = true
			}
			n.leaveAt[p] = -1
			n.leaveDone[p] = true
		}
	}
	for p := 0; p < n.cfg.Nodes; p++ {
		if n.joinAt[p] >= 0 && n.joinAt[p] <= g {
			if !n.member[p] {
				n.member[p] = true
				n.noteChangeLocked(n.joinAt[p], p, "join")
				// The joiner transmits from its switch epoch S onward; seed
				// heard at S-1 so the next gate does not count the pre-S
				// silence against it, and clear any stale suspicion from a
				// previous incarnation.
				if h := n.joinAt[p] - 1; n.heard[p] < h {
					n.heard[p] = h
				}
				n.suspected[p] = false
				n.applied[p] = false
				n.switchEpoch[p] = -1
				n.obs.Forgive(p)
				changed = true
			}
			n.joinAt[p] = -1
			n.joinDone[p] = true
		}
	}
	if !changed {
		return false, nil
	}
	n.tel.switches.Inc()
	n.tel.tracer.Instant("schedule-switch", "wire.node", n.cfg.ID, nil)
	if !n.member[n.cfg.ID] {
		// Only the failure path reaches this: a planned drain detaches in
		// txLoop before gating past its own leave epoch.
		n.stats.Ejected = true
		n.tel.ejected.Inc()
		return true, nil
	}
	return false, n.rebuildScheduleLocked()
}

// rebuildScheduleLocked recomputes the compacted schedule from the
// current membership. Called with n.mu held.
func (n *node) rebuildScheduleLocked() error {
	var inactive []int
	for p := 0; p < n.cfg.Nodes; p++ {
		if !n.member[p] {
			inactive = append(inactive, p)
		}
	}
	compacted, live, err := schedule.Compact(n.base, inactive)
	if err != nil {
		return fmt.Errorf("wire: node %d: compact: %w", n.cfg.ID, err)
	}
	n.sched, n.live = compacted, live
	n.myIdx = -1
	for i, orig := range live {
		if orig == n.cfg.ID {
			n.myIdx = i
		}
	}
	return nil
}

// noteChangeLocked appends a membership-change record to the node's
// stats timeline. Called with n.mu held.
func (n *node) noteChangeLocked(epoch, p int, kind string) {
	n.stats.Changes = append(n.stats.Changes,
		MemberChange{Epoch: epoch, Node: p, Kind: kind})
}

// ---- Receive side ----

// rxLoop drains frames until the emulator closes the fabric (EOF after
// txDone) or a fatal error. Across re-registrations it follows the
// replacement connection.
func (n *node) rxLoop() {
	for {
		conn, gen := n.currentConn()
		if conn == nil {
			// Between relinks; wait for a replacement or the end.
			n.mu.Lock()
			for n.gen == gen && n.fatalErr == nil {
				n.cond.Wait()
			}
			fatal := n.fatalErr != nil
			n.mu.Unlock()
			if fatal {
				n.finishRx(nil)
				return
			}
			continue
		}
		n.rxOnConn(conn)

		n.mu.Lock()
		replaced := n.gen != gen
		txDone := n.txDone
		fatal := n.fatalErr != nil
		n.mu.Unlock()

		switch {
		case fatal:
			n.finishRx(nil)
			return
		case replaced:
			continue // a relink swapped the connection under us
		case txDone:
			// The emulator closed the fabric once every input reached its
			// final EOF; we have read everything routed to us.
			n.finishRx(nil)
			return
		default:
			// The connection ended mid-run: the emulator retired it at a
			// departure's half-close, or the link broke. Re-register and
			// keep receiving.
			if rerr := n.relink(gen); rerr != nil {
				n.finishRx(rerr)
				return
			}
		}
	}
}

// finishRx marks the receive side complete.
func (n *node) finishRx(err error) {
	n.mu.Lock()
	if err != nil && n.fatalErr == nil {
		n.fatalErr = err
	}
	n.rxDone = true
	n.cond.Broadcast()
	n.mu.Unlock()
}

// rxOnConn reads frames from one connection until it errors or EOFs,
// decoding each into a reusable buffer — the receive loop allocates
// nothing in steady state.
func (n *node) rxOnConn(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	prbs := phy.NewPRBS(1)
	buf := make([]byte, 0, frameHeader+cell.HeaderLen+n.cfg.PayloadBytes)
	for {
		_, raw, err := ReadFrameInto(br, &buf)
		if err != nil {
			return
		}
		n.handleCell(raw, prbs)
	}
}

// handleCell processes one received cell: admission by welcome, epoch
// bookkeeping for the gate, PRBS verification, announcement adoption,
// and stats.
func (n *node) handleCell(raw []byte, prbs *phy.PRBS) {
	// The cell's payload aliases raw (the rx loop's reusable buffer);
	// handleCell finishes with it before the next read overwrites it.
	c, _, err := cell.DecodeAlias(raw)
	if err != nil {
		return // defensively ignore undecodable frames
	}
	ep := int(c.Seq >> 8)
	src := int(c.Src)

	n.progress.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.cond.Broadcast()

	if c.Kind == cell.KindControl {
		// Control cells ride outside the schedule. Hellos gate scripted
		// expansions. A welcome admits this node at its switch epoch if
		// the node is absent then and has not been admitted yet, or if
		// the transmit side has not yet taken up an admission at a later
		// epoch; stale welcomes are ignored. A welcome is also the one
		// control cell that advances heard: it proves its sender has
		// reached the epoch it was sent in.
		if src < 0 || src >= n.cfg.Nodes {
			return
		}
		if c.Flags&cell.FlagHello != 0 {
			n.helloSeen[src] = true
		}
		if j, sw, ok := c.Join(); ok && j == n.cfg.ID && int(c.Dst) == n.cfg.ID {
			if n.gapFrom <= sw && sw < n.gapUntil && (n.gapUntil == math.MaxInt || n.admitting) {
				n.admitLocked(sw, c.Payload, src, ep)
			}
			if ep > n.heard[src] {
				n.heard[src] = ep
			}
		}
		return
	}
	// The one rule that keeps every count exact: a node acts on a cell
	// only if it is a member at the epoch the cell carries. Cells sent to
	// a departed node before the fabric compacts it out, and anything
	// reaching a joiner before its switch epoch, are ignored.
	if n.gapFrom <= ep && ep < n.gapUntil {
		return
	}

	if src >= 0 && src < n.cfg.Nodes && ep > n.heard[src] {
		n.heard[src] = ep
	}
	if p, sw, ok := c.Suspicion(); ok && p >= 0 && p < n.cfg.Nodes {
		// Adopt the flooded suspicion: the originator judged at sw-2 and
		// the flood makes it fabric-wide knowledge by sw-1.
		n.recordSuspicionLocked(p, sw-2, sw, true)
	}
	if p, sw, ok := c.Join(); ok && p >= 0 && p < n.cfg.Nodes {
		n.recordJoinLocked(p, sw)
	}
	if p, sw, ok := c.Drain(); ok && p >= 0 && p < n.cfg.Nodes {
		n.recordLeaveLocked(p, sw)
	}
	if c.Kind != cell.KindData {
		return
	}
	n.stats.Received++
	n.tel.received.Inc()
	if n.stats.RxPerEpoch != nil && ep >= 0 && ep < len(n.stats.RxPerEpoch) {
		n.stats.RxPerEpoch[ep]++
	}
	if int(c.Dst) != n.cfg.ID {
		n.stats.Misrouted++
		n.tel.misrouted.Inc()
		return
	}
	prbs.Reset(prbsSeed(c.Src, c.Dst, c.Seq))
	errs := int64(prbs.CountErrors(c.Payload))
	n.stats.BitErrors += errs
	n.stats.Bits += int64(len(c.Payload)) * 8
	if errs > 0 {
		n.tel.bitErrs.Add(errs)
	}
	n.tel.bits.Add(int64(len(c.Payload)) * 8)
}
