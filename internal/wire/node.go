package wire

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/phy"
	"sirius/internal/rng"
	"sirius/internal/telemetry"
)

// Defaults for NodeConfig's zero values, and the reconnect backoff: eight
// attempts starting at 10ms, doubling, capped at 640ms.
const (
	defaultTimeout        = 10 * time.Second
	defaultSuspectTimeout = 2 * time.Second
	reconnectAttempts     = 8
	reconnectBase         = 10 * time.Millisecond
	reconnectCap          = 640 * time.Millisecond
)

// missThreshold is how many consecutive silent epochs an observer
// tolerates before suspecting a peer (§4.5).
const missThreshold = 3

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

	// Plan scripts this node's crash or restart, if any. A node with a
	// plan records per-epoch received-cell counts (NodeStats.RxPerEpoch).
	Plan *fault.Plan

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
	RxPerEpoch []int          // per-epoch received cells (runs with a plan only)
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

// node is one emulated node: the membership machine (membership.go) and
// the driver around it — the TCP connection, the PRBS payloads, the relink,
// the watchdog and the SuspectTimeout waits. mu guards the machine and
// everything below it.
type node struct {
	cfg  NodeConfig
	mu   sync.Mutex
	cond *sync.Cond
	m    *membership

	conn      net.Conn
	gen       int  // connection generation; bumped by relink
	relinking bool // a relink is in flight; others wait

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
	stats := n.stats
	n.mu.Unlock()
	stats.Failures = append([]PeerFailure(nil), stats.Failures...)
	return &stats, err
}

// newNode builds a node's run state, membership machine included, from a
// defaulted configuration.
func newNode(cfg NodeConfig) (*node, error) {
	n := &node{cfg: cfg, stats: NodeStats{Node: cfg.ID}, tel: newNodeTel(cfg)}
	n.cond = sync.NewCond(&n.mu)
	m, err := newMembership(cfg, &n.stats, &n.tel)
	n.m = m
	return n, err
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
		patient := n.m.dormant || n.m.phase == phaseHold
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
	quiet := n.stats.Drained && n.stats.Rejoins == 0
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

	backoff := reconnectBase
	var lastErr error
	for attempt := 0; attempt < reconnectAttempts; attempt++ {
		conn, err := dialRegister(n.cfg, HsReRegister)
		if err == nil {
			n.mu.Lock()
			n.conn = conn
			n.gen++
			n.stats.Reconnects++
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
		n.cfg.ID, reconnectAttempts, lastErr)
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

// txLoop takes the machine's steps until the node leaves for good: a
// joiner's hello, each epoch's transmission, and each departure — a
// crash, flap or drain, an ejection, or the run's end.
func (n *node) txLoop() error {
	payload := make([]byte, n.cfg.PayloadBytes)
	prbs := phy.NewPRBS(1)
	encodeBuf := make([]byte, 0, frameHeader+cell.HeaderLen+n.cfg.PayloadBytes)

	conn, gen := n.currentConn()
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		epochStart := time.Now()
		st, err := n.nextStep()
		if err != nil {
			return err
		}
		switch st.kind {
		case stepHello:
			conn.SetWriteDeadline(time.Now().Add(n.cfg.Timeout))
			err := n.writeCells(bw, st.cells, &encodeBuf)
			if err == nil {
				err = bw.Flush()
			}
			conn.SetWriteDeadline(time.Time{})
			if err != nil {
				return fmt.Errorf("wire: node %d: hello: %w", n.cfg.ID, err)
			}
			n.tel.tracer.Instant("hello", "wire.node", n.cfg.ID, nil)
		case stepLeave:
			if err := n.leave(st); err != nil || !st.back {
				return err
			}
			conn, gen = n.currentConn()
			bw.Reset(conn)
		case stepSend:
			n.tel.epoch.SetInt(int64(st.g))
			if err := n.sendEpoch(st.g, bw, conn, prbs, payload, &encodeBuf); err != nil {
				// One broken pipe does not end the run: re-register and
				// move on to the next epoch (this epoch's remaining cells
				// are the documented in-flight loss of a link failure).
				if rerr := n.relink(gen); rerr != nil {
					return rerr
				}
				conn, gen = n.currentConn()
				bw.Reset(conn)
			}
			n.tel.tracer.Span("epoch", "wire.node", n.cfg.ID, epochStart, nil)
			n.progress.Add(1)
		}
	}
}

// nextStep returns the machine's next transmit step, blocking while the
// machine waits for input. An epoch wait has an absolute deadline of
// SuspectTimeout, advanced by nothing, so a chatty subset of peers cannot
// postpone judgement of a silent one: at the deadline the machine judges
// the laggards and the wait ends.
func (n *node) nextStep() (step, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	wait, deadline := 0, time.Time{}
	for n.fatalErr == nil {
		st, err := n.m.next()
		if err != nil || st.kind != stepWait {
			return st, err
		}
		if st.wait != 0 && st.wait != wait {
			wait, deadline = st.wait, time.Now().Add(n.cfg.SuspectTimeout)
			defer time.AfterFunc(n.cfg.SuspectTimeout, func() {
				n.mu.Lock()
				n.cond.Broadcast()
				n.mu.Unlock()
			}).Stop()
		} else if st.wait != 0 && !time.Now().Before(deadline) {
			if err := n.m.timeout(); err != nil {
				return step{}, err
			}
			continue
		}
		n.cond.Wait()
	}
	return step{}, n.fatalErr
}

// leave takes the node off the fabric once the machine's departure wait is
// over. It half-closes, so the emulator reads this input to its end and
// every receiver hears the last epoch sent (a full Close with unread input
// draws a TCP reset that drops what was queued). Coming back, it waits
// until the receive side has read the old connection to EOF — where the
// emulator retires it and parks the port's frames — and re-registered.
func (n *node) leave(st step) error {
	n.mu.Lock()
	c, gen := n.conn, n.gen
	if !st.back {
		n.txDone = true
		n.cond.Broadcast()
	}
	n.mu.Unlock()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	if !st.back {
		return nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	for n.gen == gen && n.fatalErr == nil {
		n.cond.Wait()
	}
	return n.fatalErr
}

// sendEpoch transmits epoch g as the machine decided it: the schedule's
// data cells, each with a PRBS payload, then any welcome control cells
// owed to pending joiners. Welcomes are control cells: they do not count
// toward Sent/Received, so the data-cell accounting identities stay exact
// across lifecycle operations.
func (n *node) sendEpoch(g int, bw *bufio.Writer, conn net.Conn,
	prbs *phy.PRBS, payload []byte, encodeBuf *[]byte) error {

	n.mu.Lock()
	data, welcomes := n.m.transmit(g)
	n.mu.Unlock()

	conn.SetWriteDeadline(time.Now().Add(n.cfg.Timeout))
	defer conn.SetWriteDeadline(time.Time{})

	sent := 0
	for i := range data {
		c := &data[i]
		prbs.Reset(prbsSeed(c.Src, c.Dst, c.Seq))
		prbs.Fill(payload)
		c.Payload = payload
		// Assemble the whole wire frame — header and encoded cell — in
		// the reusable buffer and hand it to the writer in one call.
		*encodeBuf = appendFrame((*encodeBuf)[:0], n.wavelength(c.Dst), c)
		if _, err := bw.Write(*encodeBuf); err != nil {
			n.addSent(sent)
			return err
		}
		sent++
		n.tel.sent.Inc()
	}
	n.addSent(sent)
	if err := n.writeCells(bw, welcomes, encodeBuf); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCells frames control cells into the writer.
func (n *node) writeCells(bw *bufio.Writer, cells []cell.Cell, encodeBuf *[]byte) error {
	for i := range cells {
		*encodeBuf = appendFrame((*encodeBuf)[:0], n.wavelength(cells[i].Dst), &cells[i])
		if _, err := bw.Write(*encodeBuf); err != nil {
			return err
		}
	}
	return nil
}

// wavelength returns the grating wavelength that reaches dst: w on input
// i exits on output (i+w) mod N, whichever schedule chose dst.
func (n *node) wavelength(dst uint16) uint8 {
	return uint8((int(dst) - n.cfg.ID + n.cfg.Nodes) % n.cfg.Nodes)
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

// handleCell hands one received cell to the machine and verifies the PRBS
// payload of every data cell it counts.
func (n *node) handleCell(raw []byte, prbs *phy.PRBS) {
	// The cell's payload aliases raw (the rx loop's reusable buffer);
	// handleCell finishes with it before the next read overwrites it.
	c, _, err := cell.DecodeAlias(raw)
	if err != nil {
		return // defensively ignore undecodable frames
	}
	n.progress.Add(1)
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.cond.Broadcast()
	if !n.m.receive(&c) {
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
