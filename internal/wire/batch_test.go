package wire

import (
	"fmt"
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
// toward a never-registered port accumulate (pooled, no per-frame copy)
// up to parkLimit, the high-water mark reports the deepest queue, and
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

// TestIdleFlusherDeliversStragglers pins the idle-flush leg of the
// policy: a single frame routed to a quiet port (far below the batch
// budgets) still reaches the wire within a few flush intervals.
func TestIdleFlusherDeliversStragglers(t *testing.T) {
	e, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.SetBatching(1024)
	go e.Serve()

	sink := &sinkConn{}
	e.out[1].mu.Lock()
	e.out[1].conn = sink
	e.out[1].gen = 1
	e.out[1].mu.Unlock()

	frame := testFrame(t, 0, 1, 1<<8, 64)
	e.deliver(1, frame)

	deadline := time.Now().Add(2 * time.Second)
	for {
		e.out[1].mu.Lock()
		flushed := e.out[1].frames == 0 && sink.bytes == len(frame)
		e.out[1].mu.Unlock()
		if flushed {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle flusher never flushed the straggler (pending=%d, wrote %d bytes)",
				e.out[1].frames, sink.bytes)
		}
		time.Sleep(time.Millisecond)
	}
}
