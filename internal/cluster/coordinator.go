package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// registerTimeout bounds how long a fresh connection may take to present
// its Register frame. A client that connects and stalls must not pin a
// coordinator goroutine forever.
const registerTimeout = 10 * time.Second

// CoordinatorConfig configures a sweep coordinator.
type CoordinatorConfig struct {
	// Spec is forwarded opaquely to workers in the Welcome frame so they
	// can expand the same point set (see WelcomeMsg.Spec).
	Spec json.RawMessage
	// RootSeed is the sweep root seed; workers adopt it.
	RootSeed uint64
	// SpecHash is the coordinator's HashPoints over its expanded point
	// set. Workers verify their expansion against it and the coordinator
	// rejects lease requests echoing a different hash. Empty disables
	// the check (tests driving raw points).
	SpecHash string
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before it is reclaimed. <= 0 defaults to 10s.
	LeaseTTL time.Duration
	// MaxLease caps a lease's total lifetime regardless of heartbeats —
	// the zero-progress guard: a worker that heartbeats forever without
	// producing a result loses the point. <= 0 defaults to 30*LeaseTTL.
	MaxLease time.Duration
	// Registry receives the coordinator's counters and gauges; nil uses
	// telemetry.Default.
	Registry *telemetry.Registry
	// Health, when non-nil, tracks lost workers as degraded conditions:
	// a condition is set when a worker dies (or stalls out) holding
	// leases and cleared when the last of its abandoned points
	// completes, so /healthz shows degraded exactly while reclaimed work
	// is outstanding.
	Health *telemetry.Health
	// Log, when non-nil, receives one line per cluster event (worker
	// join/leave, lease reclaim).
	Log io.Writer
}

// pointID identifies a point across the sweeps of one run.
type pointID struct {
	sweep string
	index int
}

// pointResult is what a pending point's waiter receives.
type pointResult struct {
	rows [][]string
	rec  sweep.PointRecord
	err  error
}

// pendingPoint is one ExecPoint call's state in the lease table.
type pendingPoint struct {
	id   pointID
	key  string
	seed uint64
	done chan pointResult // buffered 1; closed never, delivered once

	leasedTo  string    // worker currently holding the lease ("" = none)
	deadline  time.Time // lease expiry (extended by heartbeats)
	hard      time.Time // zero-progress cap (never extended)
	completed bool
	abandoned bool // ExecPoint's context was cancelled
}

// workerConn is one registered worker connection.
type workerConn struct {
	name string
	id   int
	conn net.Conn
}

// Coordinator leases sweep points to remote workers. It implements
// sweep.Executor: plug it into a Runner's Executor field and the sweep
// fans out across every registered worker, surviving worker crashes and
// stalls by reclaiming and re-granting leases (at-least-once execution —
// safe because points are deterministic).
type Coordinator struct {
	cfg CoordinatorConfig
	ln  net.Listener

	mu       sync.Mutex
	queue    []*pendingPoint // leasable, FIFO
	byID     map[pointID]*pendingPoint
	workers  map[string]*workerConn
	envs     map[string]*sweep.RunEnv        // worker -> RunEnv it last registered with
	lost     map[string]map[pointID]struct{} // worker -> points it abandoned
	finished bool
	closed   bool

	ctrGranted    *leaseCounter
	ctrExpired    *leaseCounter
	ctrReclaimed  *leaseCounter
	ctrCompleted  *leaseCounter
	ctrDuplicate  *leaseCounter
	ctrRegistered *leaseCounter
	gWorkers      *telemetry.Gauge
	gPending      *telemetry.Gauge

	stopc chan struct{}
	wg    sync.WaitGroup
}

// leaseCounter is one count of a coordinator's lease accounting. Value
// reports this coordinator's own count; every increment also lands in
// the registry's series, which stays cumulative across the coordinators
// of a process.
type leaseCounter struct {
	own    atomic.Int64
	series *telemetry.Counter
}

func (c *leaseCounter) Add(n int64)  { c.own.Add(n); c.series.Add(n) }
func (c *leaseCounter) Inc()         { c.Add(1) }
func (c *leaseCounter) Value() int64 { return c.own.Load() }

// NewCoordinator listens on addr (e.g. ":9070" or "127.0.0.1:0") and
// starts accepting workers. The coordinator runs until Close.
func NewCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxLease <= 0 {
		cfg.MaxLease = 30 * cfg.LeaseTTL
	}
	if cfg.Registry == nil {
		cfg.Registry = telemetry.Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	reg := cfg.Registry
	counter := func(name string) *leaseCounter { return &leaseCounter{series: reg.Counter(name)} }
	c := &Coordinator{
		cfg:     cfg,
		ln:      ln,
		byID:    make(map[pointID]*pendingPoint),
		workers: make(map[string]*workerConn),
		envs:    make(map[string]*sweep.RunEnv),
		lost:    make(map[string]map[pointID]struct{}),

		ctrGranted:    counter("sirius_cluster_leases_granted_total"),
		ctrExpired:    counter("sirius_cluster_leases_expired_total"),
		ctrReclaimed:  counter("sirius_cluster_leases_reclaimed_total"),
		ctrCompleted:  counter("sirius_cluster_points_completed_total"),
		ctrDuplicate:  counter("sirius_cluster_results_duplicate_total"),
		ctrRegistered: counter("sirius_cluster_workers_registered_total"),
		gWorkers:      reg.Gauge("sirius_cluster_workers"),
		gPending:      reg.Gauge("sirius_cluster_points_pending"),

		stopc: make(chan struct{}),
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.reclaimLoop()
	return c, nil
}

// Addr returns the bound listen address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// logf writes one coordinator event line.
func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "cluster: "+format+"\n", args...)
	}
}

// ExecPoint implements sweep.Executor: the point becomes leasable and
// the call blocks until some worker delivers its result (possibly after
// one or more reclaims), the worker reports a point execution error, or
// ctx is cancelled.
func (c *Coordinator) ExecPoint(ctx context.Context, sweepName string, index int, p sweep.Point, seed uint64) ([][]string, sweep.PointRecord, error) {
	pt := &pendingPoint{
		id:   pointID{sweep: sweepName, index: index},
		key:  p.Key,
		seed: seed,
		done: make(chan pointResult, 1),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, sweep.PointRecord{}, fmt.Errorf("cluster: coordinator closed")
	}
	if prev, ok := c.byID[pt.id]; ok && !prev.completed && !prev.abandoned {
		c.mu.Unlock()
		return nil, sweep.PointRecord{}, fmt.Errorf("cluster: point %s/%d already pending", sweepName, index)
	}
	c.byID[pt.id] = pt
	c.queue = append(c.queue, pt)
	c.gPending.SetInt(int64(len(c.queue)))
	c.mu.Unlock()

	select {
	case res := <-pt.done:
		return res.rows, res.rec, res.err
	case <-ctx.Done():
		c.mu.Lock()
		pt.abandoned = true
		for i, q := range c.queue {
			if q == pt {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.gPending.SetInt(int64(len(c.queue)))
		c.mu.Unlock()
		return nil, sweep.PointRecord{}, ctx.Err()
	}
}

// Finish marks the run complete: subsequent lease requests receive Done
// and connected workers exit cleanly. Call it after the experiment's
// sweeps have all returned.
func (c *Coordinator) Finish() {
	c.mu.Lock()
	c.finished = true
	c.mu.Unlock()
}

// Close shuts the coordinator down: stops accepting, disconnects every
// worker and waits for the connection goroutines to drain.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := make([]net.Conn, 0, len(c.workers))
	for _, w := range c.workers {
		conns = append(conns, w.conn)
	}
	c.mu.Unlock()
	close(c.stopc)
	err := c.ln.Close()
	for _, conn := range conns {
		conn.Close()
	}
	c.wg.Wait()
	return err
}

// Stats is a snapshot of the coordinator's lease accounting: this
// coordinator's own counts, whatever else shares its registry.
type Stats struct {
	Granted     int64
	Expired     int64
	Reclaimed   int64
	Completed   int64
	Duplicates  int64
	Registered  int64
	WorkersLive int
	Pending     int
}

// Stats returns the current lease accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	live, pending := len(c.workers), len(c.queue)
	c.mu.Unlock()
	return Stats{
		Granted:     c.ctrGranted.Value(),
		Expired:     c.ctrExpired.Value(),
		Reclaimed:   c.ctrReclaimed.Value(),
		Completed:   c.ctrCompleted.Value(),
		Duplicates:  c.ctrDuplicate.Value(),
		Registered:  c.ctrRegistered.Value(),
		WorkersLive: live,
		Pending:     pending,
	}
}

// Workers summarizes, per worker, the points a sweep's records credit
// to it (PointRecord.Worker; records the coordinator served from its own
// cache name no worker), with the RunEnv the worker registered with. The
// result is the manifest's workers[], sorted by worker name.
func (c *Coordinator) Workers(points []sweep.PointRecord) []sweep.WorkerRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	index := make(map[string]int)
	var out []sweep.WorkerRun
	for _, p := range points {
		if p.Worker == "" {
			continue
		}
		i, ok := index[p.Worker]
		if !ok {
			i = len(out)
			index[p.Worker] = i
			out = append(out, sweep.WorkerRun{Worker: p.Worker, Env: c.envs[p.Worker]})
		}
		out[i].Points++
		out[i].WallNS += p.WallNS
		if p.Cached {
			out[i].CacheHits++
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Worker < out[j].Worker })
	return out
}

// acceptLoop admits workers until Close. A failed registration rejects
// one connection and keeps listening — a buggy client can never take the
// coordinator down (same resilience contract as the wire emulator).
func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.stopc:
				return
			default:
			}
			c.logf("accept: %v", err)
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handleConn(conn)
		}()
	}
}

// handleConn registers one worker and serves its frames until error,
// disconnect or Close; on exit its outstanding leases are reclaimed.
func (c *Coordinator) handleConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)

	conn.SetReadDeadline(time.Now().Add(registerTimeout))
	t, payload, err := ReadFrame(br)
	if err != nil || t != FrameRegister {
		writeMsg(conn, FrameError, ErrorMsg{Msg: "expected register frame"})
		return
	}
	var reg RegisterMsg
	if err := decodeMsg(t, payload, &reg); err != nil {
		writeMsg(conn, FrameError, ErrorMsg{Msg: err.Error()})
		return
	}
	if reg.Version != ProtoVersion {
		writeMsg(conn, FrameError, ErrorMsg{Msg: fmt.Sprintf("protocol version %d, want %d", reg.Version, ProtoVersion)})
		return
	}
	if reg.Worker == "" {
		writeMsg(conn, FrameError, ErrorMsg{Msg: "empty worker name"})
		return
	}
	w := &workerConn{name: reg.Worker, id: reg.ID, conn: conn}
	c.mu.Lock()
	if _, dup := c.workers[w.name]; dup {
		c.mu.Unlock()
		writeMsg(conn, FrameError, ErrorMsg{Msg: fmt.Sprintf("worker %q already registered", w.name)})
		return
	}
	c.workers[w.name] = w
	c.envs[w.name] = reg.Env
	c.gWorkers.SetInt(int64(len(c.workers)))
	c.mu.Unlock()
	c.ctrRegistered.Inc()
	c.logf("worker %s registered (id %d)", w.name, w.id)

	welcome := WelcomeMsg{
		Version:        ProtoVersion,
		Spec:           c.cfg.Spec,
		RootSeed:       c.cfg.RootSeed,
		SpecHash:       c.cfg.SpecHash,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}
	if err := writeMsg(conn, FrameWelcome, welcome); err != nil {
		c.dropWorker(w, "welcome write failed")
		return
	}

	conn.SetReadDeadline(time.Time{})
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			c.dropWorker(w, fmt.Sprintf("connection lost: %v", err))
			return
		}
		switch t {
		case FrameLeaseReq:
			var req LeaseReqMsg
			if err := decodeMsg(t, payload, &req); err != nil {
				writeMsg(conn, FrameError, ErrorMsg{Msg: err.Error()})
				c.dropWorker(w, err.Error())
				return
			}
			if c.cfg.SpecHash != "" && req.SpecHash != "" && req.SpecHash != c.cfg.SpecHash {
				msg := fmt.Sprintf("spec hash %s does not match coordinator %s", req.SpecHash, c.cfg.SpecHash)
				writeMsg(conn, FrameError, ErrorMsg{Msg: msg})
				c.dropWorker(w, msg)
				return
			}
			if err := c.grantLease(w); err != nil {
				c.dropWorker(w, err.Error())
				return
			}
		case FrameHeartbeat:
			var hb HeartbeatMsg
			if err := decodeMsg(t, payload, &hb); err != nil {
				continue // malformed heartbeat: the lease just ages
			}
			c.extendLease(w.name, pointID{sweep: hb.Sweep, index: hb.Index})
		case FrameResult:
			var res ResultMsg
			if err := decodeMsg(t, payload, &res); err != nil {
				writeMsg(conn, FrameError, ErrorMsg{Msg: err.Error()})
				c.dropWorker(w, err.Error())
				return
			}
			if err := c.handleResult(w, &res); err != nil {
				writeMsg(conn, FrameError, ErrorMsg{Msg: err.Error()})
				c.dropWorker(w, err.Error())
				return
			}
		case FrameError:
			var em ErrorMsg
			decodeMsg(t, payload, &em)
			c.dropWorker(w, "worker error: "+em.Msg)
			return
		default:
			writeMsg(conn, FrameError, ErrorMsg{Msg: "unexpected " + t.String() + " frame"})
			c.dropWorker(w, "unexpected "+t.String()+" frame")
			return
		}
	}
}

// grantLease answers one lease request: a Lease if a point is leasable,
// Done if the run is finished, Wait otherwise.
func (c *Coordinator) grantLease(w *workerConn) error {
	c.mu.Lock()
	var pt *pendingPoint
	for len(c.queue) > 0 {
		cand := c.queue[0]
		c.queue = c.queue[1:]
		if cand.completed || cand.abandoned {
			continue
		}
		pt = cand
		break
	}
	c.gPending.SetInt(int64(len(c.queue)))
	if pt == nil {
		finished := c.finished
		completed := int(c.ctrCompleted.Value())
		c.mu.Unlock()
		if finished {
			return writeMsg(w.conn, FrameDone, DoneMsg{Completed: completed})
		}
		retry := c.cfg.LeaseTTL / 8
		if retry < 10*time.Millisecond {
			retry = 10 * time.Millisecond
		}
		if retry > time.Second {
			retry = time.Second
		}
		return writeMsg(w.conn, FrameWait, WaitMsg{RetryMillis: retry.Milliseconds()})
	}
	now := time.Now()
	pt.leasedTo = w.name
	pt.deadline = now.Add(c.cfg.LeaseTTL)
	pt.hard = now.Add(c.cfg.MaxLease)
	c.mu.Unlock()
	c.ctrGranted.Inc()
	return writeMsg(w.conn, FrameLease, LeaseMsg{
		Sweep:     pt.id.sweep,
		Index:     pt.id.index,
		Key:       pt.key,
		Seed:      pt.seed,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	})
}

// extendLease rolls a lease deadline forward on heartbeat, capped by the
// hard (zero-progress) deadline.
func (c *Coordinator) extendLease(worker string, id pointID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pt := c.byID[id]
	if pt == nil || pt.completed || pt.leasedTo != worker {
		return
	}
	d := time.Now().Add(c.cfg.LeaseTTL)
	if d.After(pt.hard) {
		d = pt.hard
	}
	pt.deadline = d
}

// handleResult completes a point: first result wins (duplicates from
// reclaimed leases are counted and dropped — determinism makes them
// interchangeable), the record is stamped with the worker's name, and
// any lost-worker health condition whose last outstanding point this was
// clears.
func (c *Coordinator) handleResult(w *workerConn, res *ResultMsg) error {
	id := pointID{sweep: res.Sweep, index: res.Index}
	c.mu.Lock()
	pt := c.byID[id]
	if pt == nil || pt.completed || pt.abandoned {
		c.mu.Unlock()
		c.ctrDuplicate.Inc()
		return nil
	}
	if res.Err == "" && res.Record.Key != pt.key {
		c.mu.Unlock()
		return fmt.Errorf("result for %s/%d carries key %q, want %q (version skew?)",
			id.sweep, id.index, res.Record.Key, pt.key)
	}
	pt.completed = true
	pt.leasedTo = ""
	rec := res.Record
	rec.Worker = w.name
	rec.Index = id.index

	// This point may have been the last outstanding debt of a lost
	// worker: clear its health condition when its set drains.
	for name, set := range c.lost {
		if _, ok := set[id]; ok {
			delete(set, id)
			if len(set) == 0 {
				delete(c.lost, name)
				c.cfg.Health.ClearCondition("cluster/worker/" + name)
			}
		}
	}
	c.mu.Unlock()

	c.ctrCompleted.Inc()
	var deliver pointResult
	if res.Err != "" {
		rec.Err = res.Err
		deliver = pointResult{rec: rec, err: fmt.Errorf("worker %s: %s", w.name, res.Err)}
	} else {
		deliver = pointResult{rows: res.Rows, rec: rec}
	}
	pt.done <- deliver
	return nil
}

// dropWorker deregisters a worker and reclaims its outstanding leases.
// Reclaimed points re-enter the queue for other workers (at-least-once);
// a health condition marks the worker lost until its abandoned points
// complete.
func (c *Coordinator) dropWorker(w *workerConn, reason string) {
	c.mu.Lock()
	if c.workers[w.name] != w {
		c.mu.Unlock()
		return
	}
	delete(c.workers, w.name)
	c.gWorkers.SetInt(int64(len(c.workers)))
	var reclaimed int
	for id, pt := range c.byID {
		if pt.leasedTo == w.name && !pt.completed && !pt.abandoned {
			pt.leasedTo = ""
			c.queue = append(c.queue, pt)
			reclaimed++
			if c.lost[w.name] == nil {
				c.lost[w.name] = make(map[pointID]struct{})
			}
			c.lost[w.name][id] = struct{}{}
		}
	}
	c.gPending.SetInt(int64(len(c.queue)))
	// Counter and health condition must land before c.mu is released:
	// once released, another worker can lease, run and complete the
	// reclaimed point — and handleResult's ClearCondition must observe
	// the condition as already set.
	if reclaimed > 0 {
		c.ctrReclaimed.Add(int64(reclaimed))
		if !c.closed {
			c.cfg.Health.SetCondition("cluster/worker/"+w.name,
				fmt.Sprintf("%s with %d leased point(s); reclaimed", reason, reclaimed))
		}
	}
	c.mu.Unlock()
	c.logf("worker %s dropped (%s), %d lease(s) reclaimed", w.name, reason, reclaimed)
}

// reclaimLoop expires leases whose deadline (no heartbeat) or hard cap
// (no progress) passed, returning their points to the queue.
func (c *Coordinator) reclaimLoop() {
	defer c.wg.Done()
	tick := c.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case now := <-t.C:
			type expiry struct {
				id     pointID
				worker string
				why    string
			}
			var expired []expiry
			c.mu.Lock()
			for id, pt := range c.byID {
				if pt.leasedTo == "" || pt.completed || pt.abandoned {
					continue
				}
				if now.After(pt.deadline) || now.After(pt.hard) {
					why := "lease TTL expired (no heartbeat)"
					if now.After(pt.hard) {
						why = "zero progress: hard lease cap reached"
					}
					expired = append(expired, expiry{id: id, worker: pt.leasedTo, why: why})
					if c.lost[pt.leasedTo] == nil {
						c.lost[pt.leasedTo] = make(map[pointID]struct{})
					}
					c.lost[pt.leasedTo][id] = struct{}{}
					// As in dropWorker: counters and the health condition
					// must precede the point's return to the queue
					// becoming visible outside c.mu.
					c.ctrExpired.Inc()
					c.ctrReclaimed.Inc()
					c.cfg.Health.SetCondition("cluster/worker/"+pt.leasedTo,
						fmt.Sprintf("%s for point %s/%d; reclaimed", why, id.sweep, id.index))
					pt.leasedTo = ""
					pt.deadline = time.Time{}
					c.queue = append(c.queue, pt)
				}
			}
			c.gPending.SetInt(int64(len(c.queue)))
			c.mu.Unlock()
			for _, e := range expired {
				c.logf("lease %s/%d held by %s reclaimed: %s", e.id.sweep, e.id.index, e.worker, e.why)
			}
		}
	}
}
