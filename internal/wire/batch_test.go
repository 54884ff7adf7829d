package wire

import (
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"sirius/internal/cell"
	"sirius/internal/telemetry"
)

// sinkConn is a net.Conn that accepts every write and never allocates.
type sinkConn struct{ writes, bytes int }

func (c *sinkConn) Write(b []byte) (int, error)      { c.writes++; c.bytes += len(b); return len(b), nil }
func (c *sinkConn) Read([]byte) (int, error)         { select {} }
func (c *sinkConn) Close() error                     { return nil }
func (c *sinkConn) LocalAddr() net.Addr              { return nil }
func (c *sinkConn) RemoteAddr() net.Addr             { return nil }
func (c *sinkConn) SetDeadline(time.Time) error      { return nil }
func (c *sinkConn) SetReadDeadline(time.Time) error  { return nil }
func (c *sinkConn) SetWriteDeadline(time.Time) error { return nil }

// testFrame builds one wire frame carrying a data cell from src to dst
// with the given payload size, returning the full frame bytes.
func testFrame(t testing.TB, src, dst uint16, seq uint32, payload int) []byte {
	t.Helper()
	c := cell.Cell{Kind: cell.KindData, Src: src, Dst: dst, Seq: seq, Payload: make([]byte, payload)}
	return appendFrame(nil, uint8(dst), &c)
}

// TestBatchingDifferential runs the 4-node clean fabric with output
// batching disabled (batch=1, the pre-batching per-frame behavior) and
// with the default coalescing policy, and asserts the runs are
// observably identical: per-node sent/received cells, PRBS bit errors,
// misroutes, and total routed frames. Corruption is applied per input
// port in frame order before batching, so the write-coalescing policy
// must be invisible to every counter.
func TestBatchingDifferential(t *testing.T) {
	run := func(batch int) *FaultStats {
		t.Helper()
		fs, err := RunPrototypeCfg(PrototypeConfig{
			Nodes: 4, Epochs: 50, PayloadBytes: 64, FlipProb: 1e-3,
			BatchFrames: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	off := run(1)
	on := run(DefaultBatchFrames)

	if off.Routed != on.Routed {
		t.Errorf("routed differs: batch=1 %d, batched %d", off.Routed, on.Routed)
	}
	if off.BER != on.BER {
		t.Errorf("BER differs: batch=1 %v, batched %v", off.BER, on.BER)
	}
	for i := range off.Nodes {
		a, b := off.Nodes[i], on.Nodes[i]
		if a.Sent != b.Sent || a.Received != b.Received ||
			a.BitErrors != b.BitErrors || a.Misrouted != b.Misrouted {
			t.Errorf("node %d differs: batch=1 sent/recv/errs/mis %d/%d/%d/%d, batched %d/%d/%d/%d",
				i, a.Sent, a.Received, a.BitErrors, a.Misrouted,
				b.Sent, b.Received, b.BitErrors, b.Misrouted)
		}
	}
}

// TestBERAccountingExact ties the receivers' PRBS checkers to the
// emulator's corruption bit for bit: on a noisy fabric with no fault plan
// every flipped payload bit lands in a counted data cell, so the nodes' summed
// BitErrors equal the emulator's sirius_awgr_bits_flipped_total, and
// their summed Bits are every payload bit received. It runs at the
// benchmarks' two payload sizes, batched and per-frame.
func TestBERAccountingExact(t *testing.T) {
	for _, payload := range []int{64, 562} {
		for _, batch := range []int{0, 1} {
			reg := telemetry.NewRegistry()
			fs, err := RunPrototypeCfg(PrototypeConfig{
				Nodes: 6, Epochs: 40, PayloadBytes: payload, FlipProb: 1e-3,
				BatchFrames: batch, Telemetry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			var bitErrs, bits, received int64
			for _, st := range fs.Nodes {
				bitErrs += st.BitErrors
				bits += st.Bits
				received += int64(st.Received)
			}
			flipped := reg.Counter("sirius_awgr_bits_flipped_total").Value()
			if flipped == 0 || bitErrs != flipped {
				t.Errorf("payload %d batch %d: receivers counted %d bit errors, emulator flipped %d",
					payload, batch, bitErrs, flipped)
			}
			if want := 8 * int64(payload) * received; bits != want {
				t.Errorf("payload %d batch %d: receivers checked %d bits, want 8 x %d B x %d cells = %d",
					payload, batch, bits, payload, received, want)
			}
		}
	}
}

// TestPortCapFriendlyErrors pins the explicit 256-port cap: both the
// emulator and the node reject oversized fabrics with an error that
// names the limit and its cause, instead of failing obscurely at the
// u8 wavelength/handshake encoding.
func TestPortCapFriendlyErrors(t *testing.T) {
	if _, err := NewEmulator(maxPorts+1, 0, 1); err == nil {
		t.Fatal("emulator accepted 257 ports")
	} else if want := fmt.Sprintf("%d-port wire-format limit", maxPorts); !strings.Contains(err.Error(), want) {
		t.Errorf("emulator error %q does not name the limit", err)
	}
	if _, err := RunNode(NodeConfig{ID: 0, Nodes: maxPorts + 1, PayloadBytes: 8}); err == nil {
		t.Fatal("node accepted 257-node fabric")
	} else if !strings.Contains(err.Error(), "256") {
		t.Errorf("node error %q does not name the limit", err)
	}
	// The cap itself must be usable: an emulator at exactly maxPorts.
	e, err := NewEmulator(maxPorts, 0, 1)
	if err != nil {
		t.Fatalf("emulator rejected %d ports: %v", maxPorts, err)
	}
	e.Close()
}

// TestParkHighWaterMark pins the park-queue accounting: frames routed
// toward a never-registered port accumulate in its buffer up to
// parkLimit, the high-water mark reports the deepest queue, and
// overflow counts dropped.
func TestParkHighWaterMark(t *testing.T) {
	e, err := NewEmulator(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	frame := testFrame(t, 0, 2, 1<<8, 64)
	for i := 0; i < parkLimit+10; i++ {
		e.deliver(2, frame)
	}
	if got := e.parkedPeak.Load(); got != parkLimit {
		t.Errorf("ParkedPeak = %d, want %d", got, parkLimit)
	}
	if got := e.Dropped(); got != 10 {
		t.Errorf("Dropped = %d, want 10", got)
	}
	// A port whose connection is present parks nothing.
	e.out[1].conn = &sinkConn{}
	e.out[1].gen = 1
	e.deliver(1, frame)
	if got := e.parkedPeak.Load(); got != parkLimit {
		t.Errorf("ParkedPeak moved to %d after delivery to a live port", got)
	}
}

// TestParkedReplayInOrder pins the registration replay of a park queue
// several byte budgets deep: frames routed toward a port that has not
// registered yet reach it, all of them and in routing order, once it
// registers, in one flush counted under cause "register".
func TestParkedReplayInOrder(t *testing.T) {
	e, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	e.Instrument(reg, nil)
	frameLen := len(testFrame(t, 0, 1, 0, 562))
	n := 3*DefaultBatchBytes/frameLen + 1
	for i := 0; i < n; i++ {
		e.deliver(1, testFrame(t, 0, 1, uint32(i), 562))
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- e.Serve() }()
	defer func() {
		e.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	}()

	conn, err := net.Dial("tcp", e.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := EncodeHandshake(1, 0)
	conn.Write(h[:])
	var reply [hsReplyLen]byte
	if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != HsOK {
		t.Fatalf("port 1 registration failed: %v %v", err, reply)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < n; i++ {
		_, cellBytes, err := ReadFrame(conn)
		if err != nil {
			t.Fatalf("frame %d of %d: %v", i, n, err)
		}
		c, _, err := cell.DecodeAlias(cellBytes)
		if err != nil {
			t.Fatal(err)
		}
		if c.Seq != uint32(i) {
			t.Fatalf("frame %d carries seq %d", i, c.Seq)
		}
	}
	if got := e.Dropped(); got != 0 {
		t.Errorf("Dropped = %d, want 0", got)
	}
	if got := e.parkedPeak.Load(); got != int64(n) {
		t.Errorf("ParkedPeak = %d, want %d", got, n)
	}
	if got := reg.Counter("sirius_awgr_flushes_total", "cause", "register").Value(); got != 1 {
		t.Errorf("register flushes = %d, want 1", got)
	}
	for _, hp := range reg.Snapshot().Histograms {
		if hp.Name == "sirius_awgr_batch_frames" && (hp.Count != 1 || hp.Sum != float64(n)) {
			t.Errorf("batch histogram holds %d batches of %v frames in all, want 1 of %d", hp.Count, hp.Sum, n)
		}
	}
}

// TestDrainFlushDeliversLoneFrame pins the drain leg of the flush
// policy through Serve: one frame on port 0 for port 1, far below the
// batch budgets, reaches port 1 because its input drained. No timer
// flushes batches, so without the drain flush the frame would sit in
// port 1's batch until the fabric closed.
func TestDrainFlushDeliversLoneFrame(t *testing.T) {
	e, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.SetBatching(1024)
	serveErr := make(chan error, 1)
	go func() { serveErr <- e.Serve() }()
	defer func() {
		e.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v after Close", err)
		}
	}()

	conns := make([]net.Conn, 2)
	for port := range conns {
		conn, err := net.Dial("tcp", e.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		h := EncodeHandshake(port, 0)
		conn.Write(h[:])
		var reply [hsReplyLen]byte
		if _, err := io.ReadFull(conn, reply[:]); err != nil || reply[0] != HsOK {
			t.Fatalf("port %d registration failed: %v %v", port, err, reply)
		}
		conns[port] = conn
	}

	frame := testFrame(t, 0, 1, 1<<8, 64)
	if _, err := conns[0].Write(frame); err != nil {
		t.Fatal(err)
	}
	conns[1].SetReadDeadline(time.Now().Add(2 * time.Second))
	w, cellBytes, err := ReadFrame(conns[1])
	if err != nil {
		t.Fatalf("port 1 never received the frame: %v", err)
	}
	c, _, err := cell.DecodeAlias(cellBytes)
	if err != nil {
		t.Fatal(err)
	}
	if w != 1 || c.Src != 0 || c.Dst != 1 || c.Seq != 1<<8 {
		t.Errorf("port 1 read wavelength %d cell %d->%d seq %d, want 1, 0->1, seq %d", w, c.Src, c.Dst, c.Seq, 1<<8)
	}
}
