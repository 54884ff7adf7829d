//go:build !race

// Steady-state allocation contracts for the wire data path. Skipped
// under the race detector: its instrumentation changes the allocation
// behavior testing.AllocsPerRun observes. The CI wire-throughput-smoke
// job runs these without -race.

package wire

import (
	"bufio"
	"bytes"
	"testing"
	"time"

	"sirius/internal/cell"
	"sirius/internal/phy"
)

// TestEmulatorRoutePathZeroAlloc pins the zero-allocation contract of
// the emulator's per-frame route path: with the read buffer reused, the
// frame header rewritten in place, and delivery appending into the
// destination port's retained buffer, routing a frame — including
// the drain flush — performs no heap allocations in steady state.
func TestEmulatorRoutePathZeroAlloc(t *testing.T) {
	const ports = 8
	e, err := NewEmulator(ports, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Install sink connections directly: the contract covers the routing
	// code, not the kernel socket.
	for p := 0; p < ports; p++ {
		e.out[p].conn = &sinkConn{}
		e.out[p].gen = 1
		e.regCount[p] = 1
		e.out[p].mayReconnect = false
	}

	frame := testFrame(t, 0, 3, 7<<8|2, 562)
	cellBytes := frame[frameHeader:]
	dirty := make([]bool, ports)
	touched := make([]int, 0, ports)
	w := frame[4]

	step := func() {
		e.routeOne(0, w, frame, cellBytes, dirty, &touched)
		e.flushDirty(dirty, &touched)
	}
	for i := 0; i < 100; i++ {
		step() // size the ports' buffers
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Errorf("route path allocates %.2f objects per frame, want 0", avg)
	}

	// The batched variant — many frames, one flush — must hold too.
	burst := func() {
		for i := 0; i < DefaultBatchFrames+3; i++ {
			e.routeOne(0, w, frame, cellBytes, dirty, &touched)
		}
		e.flushDirty(dirty, &touched)
	}
	burst()
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Errorf("batched route path allocates %.2f objects per burst, want 0", avg)
	}
}

// allocTestNode builds a founder node in the post-registration steady
// state with RunNode's own constructor, without dialing anything.
func allocTestNode(t *testing.T, nodes, payloadBytes int) *node {
	t.Helper()
	n, err := newNode(NodeConfig{ID: 0, Nodes: nodes, Epochs: 1 << 20, PayloadBytes: payloadBytes,
		Timeout: time.Minute, SuspectTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestNodeSendPathZeroAlloc pins the zero-allocation contract of the
// node's steady-state transmit loop: one epoch of cells — PRBS fill,
// cell encode, frame assembly, buffered write, stats — allocates
// nothing once the encode buffer and writer are warm.
func TestNodeSendPathZeroAlloc(t *testing.T) {
	n := allocTestNode(t, 8, 562)
	conn := &sinkConn{}
	bw := bufio.NewWriterSize(conn, 64<<10)
	prbs := phy.NewPRBS(1)
	payload := make([]byte, n.cfg.PayloadBytes)
	encodeBuf := make([]byte, 0, frameHeader+cell.HeaderLen+n.cfg.PayloadBytes)

	g := 0
	step := func() {
		if err := n.sendEpoch(g, bw, conn, prbs, payload, &encodeBuf); err != nil {
			t.Fatal(err)
		}
		g++
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Errorf("send epoch allocates %.2f objects, want 0", avg)
	}
}

// TestNodeReceivePathZeroAlloc pins the zero-allocation contract of the
// node's receive path: decoding a frame from the reusable buffer,
// alias-decoding the cell, verifying the PRBS payload and updating
// stats allocates nothing.
func TestNodeReceivePathZeroAlloc(t *testing.T) {
	n := allocTestNode(t, 8, 562)
	prbs := phy.NewPRBS(1)

	// A frame whose payload is the correct PRBS continuation, as sent.
	seq := uint32(3<<8 | 1)
	payload := make([]byte, 562)
	tx := phy.NewPRBS(1)
	tx.Reset(prbsSeed(2, 0, seq))
	tx.Fill(payload)
	c := cell.Cell{Kind: cell.KindData, Src: 2, Dst: 0, Seq: seq, Payload: payload}
	wire := appendFrame(nil, 6, &c)

	r := bytes.NewReader(wire)
	buf := make([]byte, 0, len(wire))
	step := func() {
		r.Reset(wire)
		_, raw, err := ReadFrameInto(r, &buf)
		if err != nil {
			t.Fatal(err)
		}
		n.handleCell(raw, prbs)
	}
	for i := 0; i < 50; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(300, step); avg != 0 {
		t.Errorf("receive path allocates %.2f objects per cell, want 0", avg)
	}
	if n.stats.BitErrors != 0 {
		t.Fatalf("clean PRBS payload counted %d bit errors", n.stats.BitErrors)
	}
	if n.stats.Received == 0 {
		t.Fatal("no cells recorded")
	}
}
