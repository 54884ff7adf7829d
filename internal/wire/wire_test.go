package wire

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"

	"sirius/internal/cell"
)

func TestFrameRoundTrip(t *testing.T) {
	c := cell.Cell{Kind: cell.KindData, Payload: []byte("cell goes here")}
	payload := c.Encode(nil)
	w, got, err := ReadFrame(bytes.NewReader(appendFrame(nil, 7, &c)))
	if err != nil {
		t.Fatal(err)
	}
	if w != 7 || !bytes.Equal(got, payload) {
		t.Errorf("round trip: wavelength %d payload %q", w, got)
	}
}

func TestFrameRejectsHuge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestPrototypeCleanChannel(t *testing.T) {
	// The §6 experiment: four nodes, cyclic schedule, PRBS exchange,
	// post-FEC error-free operation on a clean channel.
	st, err := RunPrototype(4, 50, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ErrFree {
		t.Errorf("clean channel not error-free: BER %v", st.BER)
	}
	if st.BER != 0 {
		t.Errorf("BER = %v on clean channel", st.BER)
	}
	for _, n := range st.Nodes {
		if n.Sent != 200 || n.Received != 200 {
			t.Errorf("node %d sent/received %d/%d, want 200/200", n.Node, n.Sent, n.Received)
		}
		if n.Misrouted != 0 {
			t.Errorf("node %d saw %d misrouted cells", n.Node, n.Misrouted)
		}
	}
	if st.Routed != 800 {
		t.Errorf("routed %d frames, want 800", st.Routed)
	}
}

func TestPrototypeNoisyChannel(t *testing.T) {
	// Corruption at 1e-3 per bit exceeds the 2e-4 FEC threshold: the
	// PRBS checkers must detect it and the run must not claim error-free
	// operation.
	st, err := RunPrototype(4, 30, 64, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if st.ErrFree {
		t.Errorf("noisy channel claimed error-free (BER %v)", st.BER)
	}
	if math.Abs(st.BER-1e-3) > 5e-4 {
		t.Errorf("measured BER %v, injected 1e-3", st.BER)
	}
}

func TestPrototypeMildNoiseWithinFEC(t *testing.T) {
	// Noise below the FEC threshold: detected but correctable.
	st, err := RunPrototype(4, 30, 64, 5e-5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.ErrFree {
		t.Errorf("BER %v should be within the FEC budget", st.BER)
	}
	if st.BER == 0 {
		t.Error("injected noise not observed at all")
	}
}

func TestPrototypeEightNodes(t *testing.T) {
	st, err := RunPrototype(8, 20, 32, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range st.Nodes {
		if n.Sent != 160 || n.Received != 160 || n.Misrouted != 0 {
			t.Errorf("node %+v", n)
		}
	}
}

func TestEmulatorValidation(t *testing.T) {
	if _, err := NewEmulator(1, 0, 1); err == nil {
		t.Error("1-port emulator accepted")
	}
	if _, err := NewEmulator(4, 1.0, 1); err == nil {
		t.Error("flip probability 1.0 accepted")
	}
	if _, err := NewEmulator(4, -0.1, 1); err == nil {
		t.Error("negative flip probability accepted")
	}
}

func TestRunNodeValidation(t *testing.T) {
	if _, err := RunNode(NodeConfig{ID: 5, Nodes: 4, PayloadBytes: 8}); err == nil {
		t.Error("bad node id accepted")
	}
	if _, err := RunNode(NodeConfig{ID: 0, Nodes: 4, PayloadBytes: 0}); err == nil {
		t.Error("zero payload accepted")
	}
}

func TestNodeStatsBER(t *testing.T) {
	s := NodeStats{BitErrors: 5, Bits: 10000}
	if s.BER() != 5e-4 {
		t.Errorf("BER = %v", s.BER())
	}
	if (NodeStats{}).BER() != 0 {
		t.Error("empty stats BER should be 0")
	}
}

func TestCellSurvivesFraming(t *testing.T) {
	// A cell encoded into a frame and back is intact.
	c := cell.Cell{Kind: cell.KindData, Src: 1, Dst: 2, Flow: 3, Seq: 4,
		Payload: []byte{9, 9, 9}}
	_, raw, err := ReadFrame(bytes.NewReader(appendFrame(nil, 3, &c)))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := cell.DecodeAlias(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != 1 || got.Dst != 2 || got.Flow != 3 || got.Seq != 4 {
		t.Errorf("cell mangled: %+v", got)
	}
}

func TestEmulatorAddrExplicit(t *testing.T) {
	em, err := NewEmulatorFault("127.0.0.1:0", 2, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	if em.Addr() == "" {
		t.Error("no address")
	}
	if _, err := NewEmulatorFault("256.0.0.1:99999", 2, 0, 1, nil); err == nil {
		t.Error("bad address accepted")
	}
}

func TestRunNodeConnectFailure(t *testing.T) {
	_, err := RunNode(NodeConfig{
		ID: 0, Nodes: 4, PayloadBytes: 8,
		Addr: "127.0.0.1:1", // nothing listens here
	})
	if err == nil {
		t.Error("connect to dead address succeeded")
	}
}

func TestEmulatorRejectsBadHandshake(t *testing.T) {
	// A malformed handshake is rejected with a status reply — and the
	// emulator keeps serving: a buggy client cannot take the fabric down.
	em, err := NewEmulator(2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer em.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- em.Serve() }()

	badConn, err := net.Dial("tcp", em.Addr())
	if err != nil {
		t.Fatal(err)
	}
	badConn.Write([]byte{0xA7, hsVersion, 99, 0}) // port out of range
	var reply [hsReplyLen]byte
	if _, err := io.ReadFull(badConn, reply[:]); err != nil {
		t.Fatalf("no reject reply: %v", err)
	}
	if reply[0] != HsBadPort {
		t.Errorf("reject status = %s, want %s", hsStatusString(reply[0]), hsStatusString(HsBadPort))
	}
	badConn.Close()

	// The emulator is still accepting: a valid registration succeeds.
	goodConn, err := net.Dial("tcp", em.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer goodConn.Close()
	h := EncodeHandshake(0, 0)
	goodConn.Write(h[:])
	if _, err := io.ReadFull(goodConn, reply[:]); err != nil {
		t.Fatalf("valid handshake after reject got no reply: %v", err)
	}
	if reply[0] != HsOK {
		t.Errorf("valid handshake rejected: %s", hsStatusString(reply[0]))
	}
	if em.Rejected() != 1 {
		t.Errorf("rejected count = %d, want 1", em.Rejected())
	}

	em.Close()
	if err := <-serveErr; err != nil {
		t.Errorf("Serve returned %v after Close, want nil", err)
	}
}
