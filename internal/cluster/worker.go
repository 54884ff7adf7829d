package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sirius/internal/fault"
	"sirius/internal/rng"
	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// dialTimeout bounds a worker's dial and its wait for the Welcome.
const dialTimeout = 10 * time.Second

// ErrCrashed is returned by Worker.Run when a fault plan scripted this
// worker to crash: the connection is dropped abruptly, mid-lease, so the
// coordinator sees a dead worker and must reclaim.
var ErrCrashed = errors.New("cluster: worker crashed by fault plan")

// WorkerConfig configures a sweep worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (must be unique per
	// coordinator). Empty defaults to "worker-<ID>".
	Name string
	// ID is the worker's index in fault-plan node space.
	ID int
	// Runner executes leased points locally. Its RootSeed is overwritten
	// by the coordinator's; its Cache, if shared with the coordinator,
	// doubles as the shared result store.
	Runner *sweep.Runner
	// Plan, when non-nil, scripts chaos: a Crash event with Node == ID
	// crashes the worker on its (Epoch+1)-th lease (abrupt connection
	// close, no result); a Stall event with Src == ID makes the worker
	// stop heartbeating on that lease and sleep Delay before sending the
	// (by then reclaimed and duplicate) result.
	Plan *fault.Plan
	// Registry receives the worker's counters; nil uses telemetry.Default.
	Registry *telemetry.Registry
	// Log, when non-nil, receives one line per worker event.
	Log io.Writer
}

// Worker is a registered cluster worker: it leases points from a
// coordinator, executes them on its local Runner, and streams results
// back until the coordinator says Done.
type Worker struct {
	cfg     WorkerConfig
	conn    net.Conn
	br      *bufio.Reader
	wmu     sync.Mutex // serializes frame writes (heartbeats vs results)
	welcome WelcomeMsg

	ctrLeases  *telemetry.Counter
	ctrResults *telemetry.Counter

	// Completed counts points this worker finished (read after Run).
	Completed int
}

// Dial connects to a coordinator, registers and waits for the Welcome.
// The returned worker's Spec()/RootSeed() tell the caller what point set
// to expand before Run.
func Dial(addr string, cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("worker-%d", cfg.ID)
	}
	if cfg.Runner == nil {
		return nil, errors.New("cluster: worker needs a Runner")
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", addr, err)
	}
	w := &Worker{
		cfg:        cfg,
		conn:       conn,
		br:         bufio.NewReader(conn),
		ctrLeases:  cfg.Registry.Counter("sirius_cluster_worker_leases_total"),
		ctrResults: cfg.Registry.Counter("sirius_cluster_worker_results_total"),
	}
	reg := RegisterMsg{Version: ProtoVersion, Worker: cfg.Name, ID: cfg.ID, Env: sweep.CaptureEnv()}
	if err := writeMsg(conn, FrameRegister, reg); err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(dialTimeout))
	t, payload, err := ReadFrame(w.br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("cluster: waiting for welcome: %w", err)
	}
	conn.SetReadDeadline(time.Time{})
	switch t {
	case FrameWelcome:
		if err := decodeMsg(t, payload, &w.welcome); err != nil {
			conn.Close()
			return nil, err
		}
	case FrameError:
		var em ErrorMsg
		decodeMsg(t, payload, &em)
		conn.Close()
		return nil, fmt.Errorf("cluster: coordinator rejected registration: %s", em.Msg)
	default:
		conn.Close()
		return nil, fmt.Errorf("cluster: expected welcome, got %s frame", t)
	}
	if w.welcome.Version != ProtoVersion {
		conn.Close()
		return nil, fmt.Errorf("cluster: coordinator speaks protocol %d, want %d", w.welcome.Version, ProtoVersion)
	}
	return w, nil
}

// Spec returns the coordinator's opaque experiment spec from the
// Welcome frame.
func (w *Worker) Spec() []byte { return w.welcome.Spec }

// RootSeed returns the coordinator's sweep root seed.
func (w *Worker) RootSeed() uint64 { return w.welcome.RootSeed }

// Close drops the connection.
func (w *Worker) Close() error { return w.conn.Close() }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		fmt.Fprintf(w.cfg.Log, "worker %s: "+format+"\n", append([]any{w.cfg.Name}, args...)...)
	}
}

// writeFrame serializes frame writes so the heartbeat goroutine and the
// lease loop never interleave bytes.
func (w *Worker) writeFrame(t FrameType, v any) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeMsg(w.conn, t, v)
}

// Run executes the lease loop against the locally-expanded point set
// until the coordinator reports Done. points must map every sweep name
// to the exact point slice the coordinator expanded; Run verifies the
// expansion against the coordinator's spec hash (HashPoints) and aborts
// on mismatch — a skewed worker must not compute wrong rows.
func (w *Worker) Run(ctx context.Context, points map[string][]sweep.Point) error {
	rn := w.cfg.Runner
	rn.RootSeed = w.welcome.RootSeed
	specHash := HashPoints(w.welcome.RootSeed, points)
	if w.welcome.SpecHash != "" && specHash != w.welcome.SpecHash {
		w.writeFrame(FrameError, ErrorMsg{Msg: fmt.Sprintf(
			"local point set hashes to %s, coordinator has %s", specHash, w.welcome.SpecHash)})
		w.conn.Close()
		return fmt.Errorf("cluster: point-set hash mismatch: local %s, coordinator %s (version or config skew)",
			specHash, w.welcome.SpecHash)
	}
	ttl := time.Duration(w.welcome.LeaseTTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = 10 * time.Second
	}
	crashAt := -1
	if w.cfg.Plan != nil {
		crashAt = w.cfg.Plan.CrashEpoch(w.cfg.ID)
	}
	leaseSeq := 0 // k-th lease received; fault-plan "epoch" space

	for {
		if err := ctx.Err(); err != nil {
			w.conn.Close()
			return err
		}
		if err := w.writeFrame(FrameLeaseReq, LeaseReqMsg{SpecHash: specHash}); err != nil {
			return fmt.Errorf("cluster: lease request: %w", err)
		}
		t, payload, err := ReadFrame(w.br)
		if err != nil {
			return fmt.Errorf("cluster: reading lease reply: %w", err)
		}
		switch t {
		case FrameDone:
			var done DoneMsg
			decodeMsg(t, payload, &done)
			w.logf("done: coordinator reports %d point(s) complete, %d by this worker", done.Completed, w.Completed)
			w.conn.Close()
			return nil
		case FrameWait:
			var wait WaitMsg
			decodeMsg(t, payload, &wait)
			retry := time.Duration(wait.RetryMillis) * time.Millisecond
			if retry <= 0 {
				retry = 50 * time.Millisecond
			}
			select {
			case <-time.After(retry):
			case <-ctx.Done():
				w.conn.Close()
				return ctx.Err()
			}
			continue
		case FrameError:
			var em ErrorMsg
			decodeMsg(t, payload, &em)
			w.conn.Close()
			return fmt.Errorf("cluster: coordinator error: %s", em.Msg)
		case FrameLease:
			// handled below
		default:
			w.conn.Close()
			return fmt.Errorf("cluster: unexpected %s frame in lease loop", t)
		}

		var lease LeaseMsg
		if err := decodeMsg(t, payload, &lease); err != nil {
			w.conn.Close()
			return err
		}
		if crashAt >= 0 && leaseSeq >= crashAt {
			// Scripted fail-stop: die holding the lease. Abrupt close, no
			// error frame — the coordinator must detect and reclaim.
			w.logf("fault plan: crashing on lease %d (%s/%d)", leaseSeq, lease.Sweep, lease.Index)
			w.conn.Close()
			return ErrCrashed
		}
		if err := w.runLease(ctx, lease, ttl, leaseSeq, points); err != nil {
			w.conn.Close()
			return err
		}
		leaseSeq++
	}
}

// runLease validates, executes and reports one leased point,
// heartbeating while the computation runs.
func (w *Worker) runLease(ctx context.Context, lease LeaseMsg, ttl time.Duration, seq int, points map[string][]sweep.Point) error {
	ps := points[lease.Sweep]
	if lease.Index < 0 || lease.Index >= len(ps) {
		return fmt.Errorf("cluster: leased unknown point %s/%d (have %d points)", lease.Sweep, lease.Index, len(ps))
	}
	p := ps[lease.Index]
	if p.Key != lease.Key {
		return fmt.Errorf("cluster: lease %s/%d key %q, local expansion has %q (version skew)",
			lease.Sweep, lease.Index, lease.Key, p.Key)
	}
	if seed := rng.PointSeed(w.welcome.RootSeed, uint64(lease.Index)); seed != lease.Seed {
		return fmt.Errorf("cluster: lease %s/%d seed %d, local substream derives %d",
			lease.Sweep, lease.Index, lease.Seed, seed)
	}
	w.ctrLeases.Inc()
	w.logf("lease %d: %s/%d key=%s", seq, lease.Sweep, lease.Index, lease.Key)

	// A scripted stall silences heartbeats for this lease and delays the
	// result past the TTL, exercising expiry + duplicate handling.
	var stall time.Duration
	if w.cfg.Plan != nil {
		stall = w.cfg.Plan.StallDelay(w.cfg.ID, seq)
	}

	// Heartbeat at TTL/3 while the point computes (unless stalling).
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	if stall == 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			tick := time.NewTicker(ttl / 3)
			defer tick.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-tick.C:
					w.writeFrame(FrameHeartbeat, HeartbeatMsg{Sweep: lease.Sweep, Index: lease.Index})
				}
			}
		}()
	}

	rows, rec, err := w.cfg.Runner.ExecPoint(ctx, lease.Sweep, lease.Index, p)
	close(hbStop)
	hbWG.Wait()

	if stall > 0 {
		w.logf("fault plan: stalling %s on lease %d before result", stall, seq)
		select {
		case <-time.After(stall):
		case <-ctx.Done():
			return ctx.Err()
		}
	}

	res := ResultMsg{Sweep: lease.Sweep, Index: lease.Index, Rows: rows, Record: rec}
	if err != nil {
		res.Err = err.Error()
		res.Rows = nil
	}
	if werr := w.writeFrame(FrameResult, res); werr != nil {
		return fmt.Errorf("cluster: sending result: %w", werr)
	}
	w.ctrResults.Inc()
	w.Completed++
	return nil
}
