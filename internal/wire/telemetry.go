package wire

import (
	"strconv"

	"sirius/internal/telemetry"
)

// Telemetry wiring for the live testbed. Node and emulator counters
// land in a telemetry.Registry (the process Default unless overridden
// through NodeConfig/PrototypeConfig or Emulator.Instrument), health
// flips land in an optional telemetry.Health, and per-epoch spans in
// an optional telemetry.Tracer — all nil-safe, so unit tests that
// don't care about observability pay one atomic add per event and
// nothing else.

// nodeTel holds one node's resolved telemetry handles. Handles are
// resolved once in RunNode; the per-cell hot path then performs plain
// atomic increments (sent and received each have one writer goroutine).
type nodeTel struct {
	sent        *telemetry.Counter
	received    *telemetry.Counter
	misrouted   *telemetry.Counter
	bitErrs     *telemetry.Counter
	bits        *telemetry.Counter
	reconnects  *telemetry.Counter
	suspRaised  *telemetry.Counter
	suspAdopted *telemetry.Counter
	switches    *telemetry.Counter
	ejected     *telemetry.Counter
	epoch       *telemetry.Gauge
	health      *telemetry.Health
	tracer      *telemetry.Tracer
	id          string
}

func newNodeTel(cfg NodeConfig) nodeTel {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.Default
	}
	id := strconv.Itoa(cfg.ID)
	return nodeTel{
		sent:        reg.Counter("sirius_wire_cells_sent_total", "node", id),
		received:    reg.Counter("sirius_wire_cells_received_total", "node", id),
		misrouted:   reg.Counter("sirius_wire_cells_misrouted_total", "node", id),
		bitErrs:     reg.Counter("sirius_wire_bit_errors_total", "node", id),
		bits:        reg.Counter("sirius_wire_bits_total", "node", id),
		reconnects:  reg.Counter("sirius_wire_reconnects_total", "node", id),
		suspRaised:  reg.Counter("sirius_wire_suspicions_total", "node", id, "kind", "raised"),
		suspAdopted: reg.Counter("sirius_wire_suspicions_total", "node", id, "kind", "adopted"),
		switches:    reg.Counter("sirius_wire_schedule_switches_total", "node", id),
		ejected:     reg.Counter("sirius_wire_ejections_total", "node", id),
		epoch:       reg.Gauge("sirius_wire_node_epoch", "node", id),
		health:      cfg.Health,
		tracer:      cfg.Tracer,
		id:          id,
	}
}

// linkKey is this node's degraded-link health condition.
func (t *nodeTel) linkKey() string { return "node" + t.id + "/link" }

// peerKey is this node's suspicion-of-peer-p health condition. Set when
// the suspicion is raised or adopted, cleared when the fabric-wide
// schedule switch resolves it — so /healthz flips degraded during the
// §4.5 detection window and back to healthy once the fabric compacts.
func (t *nodeTel) peerKey(p int) string {
	return "node" + t.id + "/peer" + strconv.Itoa(p)
}

// emuTel holds the AWGR emulator's resolved telemetry handles.
type emuTel struct {
	portFrames  []*telemetry.Counter // per input port
	routed      *telemetry.Counter
	dropped     *telemetry.Counter
	greyDropped *telemetry.Counter
	parked      *telemetry.Counter
	rejected    *telemetry.Counter
	bitsFlipped *telemetry.Counter
	registered  *telemetry.Counter

	// Batching data-path counters: how many frames rode an output batch
	// that already had at least one frame pending (and therefore cost no
	// dedicated write), flush counts broken down by what triggered them,
	// a log2 histogram of frames per flushed batch, and the park-queue
	// high-water mark across all output ports.
	coalesced     *telemetry.Counter
	flushBatch    *telemetry.Counter // batch-size budget reached
	flushBytes    *telemetry.Counter // byte budget reached
	flushDrain    *telemetry.Counter // input drained (epoch boundary), ended or stalled; shutdown
	flushRegister *telemetry.Counter // park-queue replay on (re)registration
	batchFrames   *telemetry.Histogram
	parkedPeak    *telemetry.Gauge

	health *telemetry.Health
}

func newEmuTel(reg *telemetry.Registry, h *telemetry.Health, ports int) *emuTel {
	if reg == nil {
		reg = telemetry.Default
	}
	t := &emuTel{
		routed:        reg.Counter("sirius_awgr_frames_routed_total"),
		dropped:       reg.Counter("sirius_awgr_frames_dropped_total"),
		greyDropped:   reg.Counter("sirius_awgr_frames_grey_dropped_total"),
		parked:        reg.Counter("sirius_awgr_frames_parked_total"),
		rejected:      reg.Counter("sirius_awgr_connections_rejected_total"),
		bitsFlipped:   reg.Counter("sirius_awgr_bits_flipped_total"),
		registered:    reg.Counter("sirius_awgr_registrations_total"),
		coalesced:     reg.Counter("sirius_awgr_frames_coalesced_total"),
		flushBatch:    reg.Counter("sirius_awgr_flushes_total", "cause", "batch"),
		flushBytes:    reg.Counter("sirius_awgr_flushes_total", "cause", "bytes"),
		flushDrain:    reg.Counter("sirius_awgr_flushes_total", "cause", "drain"),
		flushRegister: reg.Counter("sirius_awgr_flushes_total", "cause", "register"),
		batchFrames:   reg.Histogram("sirius_awgr_batch_frames"),
		parkedPeak:    reg.Gauge("sirius_awgr_parked_frames_peak"),
		health:        h,
		portFrames:    make([]*telemetry.Counter, ports),
	}
	for p := 0; p < ports; p++ {
		t.portFrames[p] = reg.Counter("sirius_awgr_port_frames_total", "port", strconv.Itoa(p))
	}
	return t
}

// portKey is the emulator's degraded health condition for one port:
// set while a registered port's connection is broken but expected to
// re-register, cleared on (re)registration or final retirement.
func emuPortKey(p int) string { return "awgr/port" + strconv.Itoa(p) }

// Instrument redirects the emulator's telemetry into reg (nil = the
// process Default) and attaches a health tracker (nil = none). Call
// before Serve; the default from the constructor is the Default
// registry with no health tracking.
func (e *Emulator) Instrument(reg *telemetry.Registry, h *telemetry.Health) {
	e.tel = newEmuTel(reg, h, e.ports)
}
