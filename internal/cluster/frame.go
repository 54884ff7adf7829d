// Package cluster turns the experiment-sweep engine into a multi-process
// fault-tolerant job runner: a coordinator leases sweep points to worker
// processes over TCP, reclaims leases when workers die or stop making
// progress, and merges per-worker results into output byte-identical to
// a serial run at the same seed.
//
// The design leans on three properties internal/sweep already has:
//
//  1. Determinism. Every point runs on the private RNG substream
//     rng.PointSeed(rootSeed, pointIndex), so a point computes the same
//     rows on any worker, any number of times. At-least-once delivery is
//     therefore safe: a reclaimed-and-re-executed point and a late
//     duplicate result are bitwise interchangeable, and the coordinator
//     just keeps the first.
//  2. Content addressing. Completed points live in the on-disk cache
//     under Identity.Hash(); when coordinator and workers share a cache
//     directory it becomes the shared result store — a point computed by
//     a crashed worker's earlier run replays instead of recomputing.
//  3. Manifests. Each result carries its PointRecord, which the
//     coordinator's sweep Runner records like any other point: its
//     manifest is the run's record, canonically equal to a serial run's,
//     and Coordinator.Workers summarizes its points by worker.
//
// The protocol mirrors internal/wire's framing discipline: length-
// prefixed frames, a defensive size bound, and a decoder that rejects
// truncated, oversized or type-corrupted frames cleanly (fuzzed like the
// wire decoder). Payloads are JSON — the control plane moves a few
// frames per point, so debuggability wins over density.
//
// Frame flow:
//
//	worker                          coordinator
//	  | -- Register{name,id,env} -->  |  validate, admit
//	  | <-- Welcome{spec,seed,hash} --|
//	  | -- LeaseReq{spec_hash} ---->  |  pop pending point
//	  | <-- Lease{sweep,idx,seed,ttl}-|  (or Wait / Done)
//	  | -- Heartbeat{sweep,idx} --->  |  extend lease (while running)
//	  | -- Result{rows,record} ---->  |  complete point, reclaim credit
//	  | -- LeaseReq ... ---------->   |
//
// Lease state machine (per point):
//
//	PENDING --grant--> LEASED --result--> DONE
//	   ^                  |
//	   |   expiry (TTL or hard cap) / worker connection lost
//	   +------------------+   (reclaimed, at-least-once)
package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"sirius/internal/sweep"
)

// ProtoVersion is the coordinator/worker protocol version. Register and
// Welcome both carry it; either side rejects a mismatch.
const ProtoVersion = 1

// frameHeader is u32 payload length | u8 frame type.
const frameHeader = 5

// MaxFrame bounds decoded frames defensively. Result frames carry a
// point's full row set, so the bound is generous compared to
// internal/wire's cell frames — but still finite: a corrupted length
// field must never allocate unbounded memory.
const MaxFrame = 16 << 20

// FrameType tags a protocol frame.
type FrameType uint8

// Protocol frame types. The decoder rejects anything outside
// [FrameRegister, FrameError].
const (
	FrameRegister  FrameType = iota + 1 // worker -> coordinator: introduce itself
	FrameWelcome                        // coordinator -> worker: spec, root seed, spec hash
	FrameLeaseReq                       // worker -> coordinator: request a point lease
	FrameLease                          // coordinator -> worker: a leased point
	FrameWait                           // coordinator -> worker: nothing leasable, retry later
	FrameDone                           // coordinator -> worker: sweep complete, disconnect
	FrameResult                         // worker -> coordinator: a completed point
	FrameHeartbeat                      // worker -> coordinator: still computing, extend lease
	FrameError                          // either direction: fatal protocol error, then close
)

// String names a frame type for errors and logs.
func (t FrameType) String() string {
	switch t {
	case FrameRegister:
		return "register"
	case FrameWelcome:
		return "welcome"
	case FrameLeaseReq:
		return "lease-req"
	case FrameLease:
		return "lease"
	case FrameWait:
		return "wait"
	case FrameDone:
		return "done"
	case FrameResult:
		return "result"
	case FrameHeartbeat:
		return "heartbeat"
	case FrameError:
		return "error"
	}
	return fmt.Sprintf("type-%d", uint8(t))
}

// WriteFrame writes one typed frame.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("cluster: %s frame of %d bytes exceeds limit", t, len(payload))
	}
	var h [frameHeader]byte
	binary.BigEndian.PutUint32(h[:4], uint32(len(payload)))
	h[4] = uint8(t)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one typed frame, rejecting oversized lengths and
// unknown frame types before reading any payload byte.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var h [frameHeader]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(h[:4])
	if n > MaxFrame {
		return 0, nil, fmt.Errorf("cluster: frame of %d bytes exceeds limit", n)
	}
	t := FrameType(h[4])
	if t < FrameRegister || t > FrameError {
		return 0, nil, fmt.Errorf("cluster: unknown frame type %d", h[4])
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return t, buf, nil
}

// writeMsg marshals v and writes it as a frame of type t.
func writeMsg(w io.Writer, t FrameType, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encode %s: %w", t, err)
	}
	return WriteFrame(w, t, payload)
}

// decodeMsg unmarshals a frame payload, labeling errors with the type.
func decodeMsg(t FrameType, payload []byte, v any) error {
	if err := json.Unmarshal(payload, v); err != nil {
		return fmt.Errorf("cluster: bad %s payload: %w", t, err)
	}
	return nil
}

// RegisterMsg introduces a worker to the coordinator.
type RegisterMsg struct {
	Version int    `json:"version"`
	Worker  string `json:"worker"`
	// ID is the worker's index in fault-plan node space (internal/fault
	// Crash/Stall events address workers by this).
	ID  int           `json:"id"`
	Env *sweep.RunEnv `json:"env,omitempty"`
}

// WelcomeMsg is the coordinator's reply to a valid registration.
type WelcomeMsg struct {
	Version int `json:"version"`
	// Spec is an opaque experiment description the embedding command
	// interprets to expand the same point set the coordinator holds
	// (cmd/siriussim encodes experiment name, scale, seed and loads).
	Spec     json.RawMessage `json:"spec,omitempty"`
	RootSeed uint64          `json:"root_seed"`
	// SpecHash content-addresses the coordinator's expanded point set
	// (HashPoints); a worker whose local expansion hashes differently
	// must abort rather than compute wrong points.
	SpecHash       string `json:"spec_hash,omitempty"`
	LeaseTTLMillis int64  `json:"lease_ttl_ms"`
}

// LeaseReqMsg asks for one point lease. The worker echoes the spec hash
// it verified so the coordinator can double-check agreement.
type LeaseReqMsg struct {
	SpecHash string `json:"spec_hash,omitempty"`
}

// LeaseMsg grants one point. Key and Seed let the worker cross-check its
// local expansion before running (belt to SpecHash's suspenders).
type LeaseMsg struct {
	Sweep     string `json:"sweep"`
	Index     int    `json:"index"`
	Key       string `json:"key"`
	Seed      uint64 `json:"seed"`
	TTLMillis int64  `json:"ttl_ms"`
}

// WaitMsg tells a worker nothing is leasable right now.
type WaitMsg struct {
	RetryMillis int64 `json:"retry_ms"`
}

// DoneMsg tells a worker the run is complete and it should exit.
type DoneMsg struct {
	Completed int `json:"completed"`
}

// ResultMsg reports a completed (or failed) point.
type ResultMsg struct {
	Sweep  string            `json:"sweep"`
	Index  int               `json:"index"`
	Rows   [][]string        `json:"rows,omitempty"`
	Record sweep.PointRecord `json:"record"`
	// Err is a point execution failure (the experiment code errored);
	// protocol failures use FrameError instead.
	Err string `json:"error,omitempty"`
}

// HeartbeatMsg extends the lease on a point the worker is computing.
type HeartbeatMsg struct {
	Sweep string `json:"sweep"`
	Index int    `json:"index"`
}

// ErrorMsg is a fatal, human-readable protocol error; the sender closes
// the connection after writing it.
type ErrorMsg struct {
	Msg string `json:"msg"`
}
