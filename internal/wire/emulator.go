package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/cell"
	"sirius/internal/fault"
	"sirius/internal/rng"
	"sirius/internal/telemetry"
)

// parkLimit caps the number of frames held for a port that is expected to
// (re)connect. Beyond it, frames are counted dropped — the emulator never
// grows without bound because of one absent node.
const parkLimit = 4096

// handshakeTimeout bounds how long a fresh connection may take to present
// its 4-byte handshake before being rejected. A client that connects and
// stalls must not pin emulator resources.
const handshakeTimeout = 5 * time.Second

// Write-coalescing policy for the output ports (SetBatching overrides the
// frame budget). A batch is flushed as soon as it holds DefaultBatchFrames
// frames or DefaultBatchBytes bytes, by the input that appended to it once
// that input's stream drains, ends or stalls, and by the replay when its
// port (re)registers. No timer is needed: a node writes each epoch burst
// whole, so an input blocks with frames unflushed only in the middle of a
// frame whose remaining bytes are already on their way.
const (
	DefaultBatchFrames = 16
	DefaultBatchBytes  = 32 << 10
)

// outPort is one output port of the grating: the registered connection
// plus the one buffer in front of it. While the port is connected, buf
// batches frames for the next write; while it is absent and expected
// back, buf holds up to parkLimit frames for the registration replay.
// op.mu serializes all writes to the port, so a stalled reader
// back-pressures only the inputs currently routing to it — never the
// rest of the fabric. Lock order: op.mu before e.mu, never the reverse.
type outPort struct {
	mu           sync.Mutex
	conn         net.Conn // nil while the port is absent
	gen          int      // bumped per (re)registration
	buf          []byte   // whole frames, batched or parked
	frames       int      // frames in buf
	mayReconnect bool     // cached mayReconnectLocked, refreshed on registration
}

// Emulator is the AWGR stand-in: a process that accepts one TCP connection
// per grating port and routes each wavelength-tagged frame to output port
// (input + wavelength) mod N, exactly the cyclic rule of a physical
// arrayed-waveguide grating.
//
// The emulator is resilient by construction: the accept loop never stops
// on a bad client (it rejects with a status reply and keeps listening), a
// re-registering node replaces its prior connection, frames routed toward
// an absent-but-expected port are parked and flushed on (re)registration,
// and per-port write errors are recorded instead of fatal. Serve returns
// only when the whole fabric has completed — every port registered and
// every input stream reached its final EOF — or on Close.
//
// The data path is zero-copy and batched: each input goroutine decodes
// frames into a reusable buffer (ReadFrameInto), rewrites the 5-byte
// header in place, and appends the frame to the destination port's
// coalescing blob; one conn.Write then carries the whole batch.
type Emulator struct {
	ln       net.Listener
	ports    int
	flipProb float64
	plan     *fault.Plan

	batchFrames int

	out []outPort

	mu         sync.Mutex
	regCount   []int  // how many times each port has registered
	eofFinal   []bool // the port's input stream has spoken its last
	closed     bool   // Close was called
	completing bool   // fabric completed; shutting down

	// Per-input-port corruption substreams: rngs[p] is seeded from
	// PointSeed(seed, p) and consumed in that port's frame order, so bit
	// flips are deterministic for a given (seed, frame history) no matter
	// how the per-port goroutines interleave. rmu guards against the brief
	// overlap window during a re-registration.
	rmu  []sync.Mutex
	rngs []*rng.RNG

	routed      atomic.Int64
	dropped     atomic.Int64 // frames lost to dead or over-parked ports
	greyDropped atomic.Int64 // frames blackholed by Grey fault events
	rejected    atomic.Int64 // connections refused at handshake
	parkedPeak  atomic.Int64 // high-water mark of any one port's park queue

	// tel mirrors the counters above into a telemetry registry (the
	// process Default unless Instrument overrode it) and optionally
	// flips health conditions while a registered port's connection is
	// broken but expected back. Set before Serve, read-only after.
	tel *emuTel

	wg sync.WaitGroup
}

// NewEmulator listens on an ephemeral localhost port with no fault plan.
func NewEmulator(ports int, flipProb float64, seed uint64) (*Emulator, error) {
	return NewEmulatorFault("127.0.0.1:0", ports, flipProb, seed, nil)
}

// NewEmulatorFault listens on the given address and consults the given
// fault plan (which may be nil) while routing.
func NewEmulatorFault(addr string, ports int, flipProb float64, seed uint64, plan *fault.Plan) (*Emulator, error) {
	if ports < 2 {
		return nil, fmt.Errorf("wire: need >= 2 ports")
	}
	if ports > maxPorts {
		return nil, fmt.Errorf("wire: %d ports exceeds the %d-port wire-format limit (the wavelength and handshake port fields are one byte; see docs/PROTOCOL.md)", ports, maxPorts)
	}
	if flipProb < 0 || flipProb >= 1 {
		return nil, fmt.Errorf("wire: flip probability %v outside [0,1)", flipProb)
	}
	if err := plan.Validate(ports); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	e := &Emulator{
		ln:          ln,
		ports:       ports,
		flipProb:    flipProb,
		plan:        plan,
		batchFrames: DefaultBatchFrames,
		out:         make([]outPort, ports),
		regCount:    make([]int, ports),
		eofFinal:    make([]bool, ports),
		rmu:         make([]sync.Mutex, ports),
		rngs:        make([]*rng.RNG, ports),
	}
	for p := 0; p < ports; p++ {
		e.out[p].mayReconnect = true // never registered yet
		e.rngs[p] = rng.New(rng.PointSeed(seed, uint64(p)))
	}
	e.tel = newEmuTel(nil, nil, ports)
	return e, nil
}

// SetBatching sets the frames a port's batch holds before it is flushed;
// 1 disables coalescing (every routed frame is written at once), and a
// non-positive value keeps the default. Call before Serve.
func (e *Emulator) SetBatching(frames int) {
	if frames > 0 {
		e.batchFrames = frames
	}
}

// Addr returns the listen address.
func (e *Emulator) Addr() string { return e.ln.Addr().String() }

// Routed returns the number of frames forwarded so far.
func (e *Emulator) Routed() int64 { return e.routed.Load() }

// Dropped returns frames lost to dead or over-parked output ports.
func (e *Emulator) Dropped() int64 { return e.dropped.Load() }

// GreyDropped returns frames blackholed by Grey fault events.
func (e *Emulator) GreyDropped() int64 { return e.greyDropped.Load() }

// Rejected returns the number of connections refused at handshake.
func (e *Emulator) Rejected() int64 { return e.rejected.Load() }

// Close shuts the emulator down: the listener and all connections are
// closed and Serve returns nil. Batched frames still holding a live
// connection get one best-effort flush bounded by 50 ms. Idempotent.
func (e *Emulator) Close() error {
	e.mu.Lock()
	done := e.closed
	e.closed = true
	e.mu.Unlock()
	if !done {
		e.shutdown(50 * time.Millisecond)
	}
	return nil
}

// shutdown closes the listener and every port. A port's batch gets one
// flush, bounded by flushWithin when that is positive, and its connection
// is closed so the receiver sees EOF. Whatever is still held after that
// (a failed flush, frames parked for a port that never returned) is
// counted dropped, so routed frames always land in delivered, dropped or
// grey-dropped, even on an abortive Close.
func (e *Emulator) shutdown(flushWithin time.Duration) {
	e.ln.Close()
	for p := range e.out {
		op := &e.out[p]
		op.mu.Lock()
		if op.conn != nil && op.frames > 0 && flushWithin > 0 {
			op.conn.SetWriteDeadline(time.Now().Add(flushWithin))
		}
		e.flushLocked(p, op, e.tel.flushDrain)
		if op.conn != nil {
			op.conn.Close()
			op.conn = nil
		}
		if op.frames > 0 {
			e.dropped.Add(int64(op.frames))
			e.tel.dropped.Add(int64(op.frames))
		}
		op.buf, op.frames = nil, 0
		op.mayReconnect = false // bars further parking
		op.mu.Unlock()
	}
}

// Serve accepts connections and routes frames until the fabric completes
// (every port registered at least once and every input reached its final
// EOF) or Close is called. A malformed, duplicate, or out-of-range
// handshake rejects that one connection — with a status reply naming the
// reason — and the accept loop keeps going: a buggy or malicious client
// cannot take the fabric down.
func (e *Emulator) Serve() error {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			e.wg.Wait()
			e.mu.Lock()
			done := e.closed || e.completing
			e.mu.Unlock()
			if done {
				return nil
			}
			return fmt.Errorf("wire: accept: %w", err)
		}
		e.wg.Add(1)
		go e.admit(conn)
	}
}

// admit performs the handshake on a fresh connection and, on success,
// registers it, replays the frames held for the port, and starts routing
// its input.
func (e *Emulator) admit(conn net.Conn) {
	defer e.wg.Done()
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var h [hsLen]byte
	if _, err := io.ReadFull(conn, h[:]); err != nil {
		e.rejected.Add(1)
		e.tel.rejected.Inc()
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	port, flags, status, err := ParseHandshake(h, e.ports)
	if err != nil {
		e.reject(conn, status)
		return
	}

	op := &e.out[port]
	op.mu.Lock()
	e.mu.Lock()
	if e.closed || e.completing {
		e.mu.Unlock()
		op.mu.Unlock()
		conn.Close()
		return
	}
	if op.conn != nil && flags&HsReRegister == 0 {
		e.mu.Unlock()
		op.mu.Unlock()
		e.reject(conn, HsDuplicate)
		return
	}
	if old := op.conn; old != nil {
		old.Close() // superseded by the re-registration
	}
	op.gen++
	gen := op.gen
	op.conn = conn
	e.regCount[port]++
	e.eofFinal[port] = false // a re-registered port speaks again
	op.mayReconnect = e.mayReconnectLocked(port)
	e.mu.Unlock()
	e.tel.registered.Inc()
	e.tel.health.ClearCondition(emuPortKey(port))

	// Reply and replay the held frames in one write while still holding
	// op.mu, so no freshly routed frame can jump ahead of them.
	if _, err := conn.Write([]byte{HsOK, uint8(port)}); err != nil {
		e.retireConnLocked(port, op)
		op.mu.Unlock()
		return
	}
	e.flushLocked(port, op, e.tel.flushRegister)
	op.mu.Unlock()

	e.wg.Add(1)
	go e.routeFrom(port, gen, conn)
}

// reject answers a refused connection with its status and closes it.
func (e *Emulator) reject(conn net.Conn, status uint8) {
	e.rejected.Add(1)
	e.tel.rejected.Inc()
	if derr := conn.SetWriteDeadline(time.Now().Add(handshakeTimeout)); derr == nil {
		conn.Write([]byte{status, 0})
	}
	conn.Close()
}

// routeFrom reads frames arriving on input port p and forwards each to
// output port (p + wavelength) mod N, applying the fault plan's grey
// drops, BER degradation, and stalls on the way through the grating.
//
// The loop owns one reusable frame buffer — ReadFrameInto decodes into
// it and deliver copies the frame into the destination port's batch, so
// the steady state allocates nothing. Batches this input contributed to
// are flushed whenever the input stream momentarily drains (the sender
// flushes once per epoch, so that is the epoch boundary), after one
// yield that lets the other inputs' bursts join them.
func (e *Emulator) routeFrom(port, gen int, conn net.Conn) {
	defer e.wg.Done()
	br := bufio.NewReaderSize(conn, 64<<10)
	buf := make([]byte, 0, frameHeader+4096)
	dirty := make([]bool, e.ports)
	touched := make([]int, 0, e.ports)
	for {
		w, cellBytes, err := ReadFrameInto(br, &buf)
		if err != nil {
			e.flushDirty(dirty, &touched)
			e.inputDone(port, gen, conn, err)
			return
		}
		e.routeOne(port, w, buf[:frameHeader+len(cellBytes)], cellBytes, dirty, &touched)
		if br.Buffered() == 0 && len(touched) > 0 {
			// Input drained: the epoch burst is over. Yield once first,
			// so the inputs whose bursts have already arrived append to
			// the same ports (each burst fans out to every output), then
			// flush every batch this input touched so receivers see their
			// cells now; a port another input flushed meanwhile no-ops.
			runtime.Gosched()
			e.flushDirty(dirty, &touched)
		}
	}
}

// routeOne pushes one decoded frame through the grating: fault-plan
// effects (stall, grey drop, payload corruption), then delivery into the
// destination port's batch. frame is the full wire frame and cellBytes
// aliases its payload; both live in the caller's reusable buffer, valid
// only until the next read.
func (e *Emulator) routeOne(port int, w uint8, frame, cellBytes []byte, dirty []bool, touched *[]int) {
	e.tel.portFrames[port].Inc()
	epoch := cellEpoch(cellBytes)
	if d := e.plan.StallDelay(port, epoch); d > 0 {
		e.flushDirty(dirty, touched)
		time.Sleep(d)
	}
	out := (port + int(w)) % e.ports
	if e.plan.GreyDrop(port, out, epoch) {
		e.greyDropped.Add(1)
		e.tel.greyDropped.Inc()
		return
	}
	if p := e.plan.FlipProb(port, epoch, e.flipProb); p > 0 && len(cellBytes) > cell.HeaderLen &&
		cell.Kind(cellBytes[1]) != cell.KindControl {
		// Corrupt payload bits only, and never control cells: cell headers
		// model the separately (and more strongly) FEC-protected framing,
		// so epoch numbers and piggybacked suspicions survive
		// receiver-sensitivity faults the way the payload does not — and
		// control cells (welcomes carry membership bitmaps in the payload)
		// ride under the same protection end to end.
		e.rmu[port].Lock()
		flips := corruptPayload(cellBytes[cell.HeaderLen:], p, e.rngs[port])
		e.rmu[port].Unlock()
		if flips > 0 {
			e.tel.bitsFlipped.Add(flips)
		}
	}
	// Rewrite the header in place (same length, same wavelength — the
	// AWGR is transparent) rather than rebuilding the frame.
	binary.BigEndian.PutUint32(frame[:4], uint32(len(cellBytes)))
	frame[4] = w
	e.routed.Add(1)
	e.tel.routed.Inc()
	e.deliver(out, frame)
	if !dirty[out] {
		dirty[out] = true
		*touched = append(*touched, out)
	}
}

// flushDirty flushes the batches of every port in the touched set and
// clears the set. Ports whose batches were already flushed (a budget, or
// another input's flush) no-op.
func (e *Emulator) flushDirty(dirty []bool, touched *[]int) {
	for _, out := range *touched {
		dirty[out] = false
		op := &e.out[out]
		op.mu.Lock()
		if op.conn != nil && op.frames > 0 {
			e.flushLocked(out, op, e.tel.flushDrain)
		}
		op.mu.Unlock()
	}
	*touched = (*touched)[:0]
}

// deliver appends one assembled frame to an output port's batch (flushing
// if a budget is hit), parking it if the port is expected but absent, and
// counting it dropped otherwise. The frame is copied into the batch blob;
// the caller keeps ownership of its buffer.
func (e *Emulator) deliver(out int, frame []byte) {
	op := &e.out[out]
	op.mu.Lock()
	if op.conn == nil {
		e.parkFrameLocked(op, frame)
		op.mu.Unlock()
		return
	}
	if op.frames > 0 {
		e.tel.coalesced.Inc()
	}
	op.appendLocked(frame)
	if op.frames >= e.batchFrames {
		e.flushLocked(out, op, e.tel.flushBatch)
	} else if len(op.buf) >= DefaultBatchBytes {
		e.flushLocked(out, op, e.tel.flushBytes)
	}
	op.mu.Unlock()
}

// appendLocked copies a frame into the port's buffer, sized on first use
// to hold a full batch so the live path never grows it. Called with
// op.mu held.
func (op *outPort) appendLocked(frame []byte) {
	if op.buf == nil {
		op.buf = make([]byte, 0, DefaultBatchBytes+maxFrame+frameHeader)
	}
	op.buf = append(op.buf, frame...)
	op.frames++
}

// flushLocked writes the port's batch in one conn.Write, attributing the
// flush to cause. On error the connection is retired and the unwritten
// batch parked (awaiting re-registration) or dropped. Called with op.mu
// held; the port index is only used for error bookkeeping.
func (e *Emulator) flushLocked(port int, op *outPort, cause *telemetry.Counter) {
	if op.frames == 0 || op.conn == nil {
		return
	}
	n := op.frames
	if _, err := op.conn.Write(op.buf); err != nil {
		e.retireConnLocked(port, op)
		return
	}
	op.buf = op.buf[:0]
	op.frames = 0
	cause.Inc()
	e.tel.batchFrames.Observe(float64(n))
}

// retireConnLocked tears a port's connection down after a write error:
// the connection is dropped and the pending batch parked (if the port is
// expected back) or counted dropped. The fabric keeps running. Called
// with op.mu held.
func (e *Emulator) retireConnLocked(port int, op *outPort) {
	if op.conn != nil {
		op.conn.Close()
		op.conn = nil
	}
	e.mu.Lock()
	op.mayReconnect = e.mayReconnectLocked(port)
	e.mu.Unlock()
	if op.mayReconnect {
		// Expected back: the fabric is degraded until it returns.
		e.tel.health.SetCondition(emuPortKey(port), "write failed; awaiting re-registration")
	}
	e.parkPendingLocked(op)
}

// parkFrameLocked holds one frame for an absent port that is expected to
// (re)connect, up to parkLimit frames, or counts it dropped. Called with
// op.mu held.
func (e *Emulator) parkFrameLocked(op *outPort, frame []byte) {
	if !op.mayReconnect || op.frames >= parkLimit {
		e.dropped.Add(1)
		e.tel.dropped.Inc()
		return
	}
	op.appendLocked(frame)
	e.tel.parked.Inc()
	e.notePark(op)
}

// parkPendingLocked keeps the port's batch in place for the registration
// replay when the port is expected back, or counts its frames dropped.
// Called with op.mu held, op.conn nil.
func (e *Emulator) parkPendingLocked(op *outPort) {
	if op.frames == 0 {
		return
	}
	if op.mayReconnect && op.frames <= parkLimit {
		e.tel.parked.Add(int64(op.frames))
		e.notePark(op)
		return
	}
	e.dropped.Add(int64(op.frames))
	e.tel.dropped.Add(int64(op.frames))
	op.buf = op.buf[:0]
	op.frames = 0
}

// notePark updates the park-queue high-water mark after frames were
// parked on op. Called with op.mu held.
func (e *Emulator) notePark(op *outPort) {
	cur := int64(op.frames)
	for {
		old := e.parkedPeak.Load()
		if cur <= old {
			return
		}
		if e.parkedPeak.CompareAndSwap(old, cur) {
			e.tel.parkedPeak.SetInt(cur)
			return
		}
	}
}

// mayReconnectLocked reports whether the port is expected to (re)appear:
// it has never registered, or the fault plan scripts more registrations
// than it has consumed. Each port registers once at startup, once more
// after a scripted flap, and once more after a scripted rejoin (a restart
// following a crash, or a re-add following a drain). Called with e.mu
// held.
func (e *Emulator) mayReconnectLocked(out int) bool {
	if e.regCount[out] == 0 {
		return true
	}
	expected := 1
	if e.plan.FlapEpoch(out) >= 0 {
		expected++
	}
	if e.plan.RejoinEpoch(out) >= 0 {
		expected++
	}
	return e.regCount[out] < expected
}

// inputDone handles the end of a port's input stream. Unless the port
// has spoken its last, the connection is retired — closed, with whatever
// was batched for the port parked until it re-registers — whether the
// read broke or ended in a clean EOF: a departing node half-closes and
// re-registers only after reading the retired connection to its end, so
// a re-registration never replaces an input with unread frames. A final
// EOF leaves the connection open for delivery (the node reads until the
// fabric closes); once every registered port has spoken its last, the
// fabric is complete and the emulator flushes every batch, closes every
// connection (delivering EOF to all receivers), and stops serving.
func (e *Emulator) inputDone(port, gen int, conn net.Conn, err error) {
	op := &e.out[port]
	op.mu.Lock()
	if gen != op.gen {
		op.mu.Unlock()
		return // superseded by a re-registration
	}
	broken := err != io.EOF && err != io.ErrUnexpectedEOF
	e.mu.Lock()
	back := e.mayReconnectLocked(port) && !e.closed
	e.mu.Unlock()
	if broken || back {
		conn.Close()
		if op.conn == conn {
			op.conn = nil
			e.parkPendingLocked(op)
		}
	}
	if back {
		if broken {
			e.tel.health.SetCondition(emuPortKey(port), "read failed; awaiting re-registration")
		}
		op.mu.Unlock()
		return // not the port's last word: await re-registration
	}
	e.mu.Lock()
	e.eofFinal[port] = true
	// The port's final word: whatever happened to it is no longer a
	// degraded condition but the fabric's new (compacted) shape.
	e.tel.health.ClearCondition(emuPortKey(port))
	complete := !e.completing && e.fabricDoneLocked()
	if complete {
		e.completing = true
	}
	e.mu.Unlock()
	op.mu.Unlock()
	if complete {
		// No input appends anymore, so the batches are stable and their
		// flush needs no bound.
		e.shutdown(0)
	}
}

// fabricDoneLocked reports whether every port has registered and every
// input stream has reached its final EOF. Called with e.mu held.
func (e *Emulator) fabricDoneLocked() bool {
	for p := 0; p < e.ports; p++ {
		if e.regCount[p] == 0 || !e.eofFinal[p] {
			return false
		}
	}
	return true
}

// corruptPayload flips each bit of b independently with probability prob,
// using geometric skip sampling: instead of one Bernoulli draw per bit, it
// draws the gap to the next flipped bit as Geometric(prob) via
// floor(ln U / ln(1-prob)) — exactly the same per-bit distribution with
// ~1/prob fewer RNG calls. It returns the number of bits flipped.
func corruptPayload(b []byte, prob float64, r *rng.RNG) int64 {
	if prob <= 0 || len(b) == 0 {
		return 0
	}
	nbits := len(b) * 8
	invLn := 1 / math.Log1p(-prob) // negative
	var flips int64
	i := 0
	for {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		i += int(math.Log(u) * invLn) // gap: failures before the next flip
		if i >= nbits || i < 0 {
			return flips
		}
		b[i>>3] ^= 1 << uint(i&7)
		flips++
		i++
	}
}
