package sweep

import (
	"encoding/json"
	"io"
	"runtime"
	"time"
)

// PointRecord is one point's entry in the run manifest.
type PointRecord struct {
	Index  int    `json:"index"`
	Key    string `json:"key"`
	Seed   uint64 `json:"seed"`
	Hash   string `json:"hash,omitempty"`
	Cached bool   `json:"cached,omitempty"`
	// StartNS is the point's execution start relative to the sweep's
	// start (0 for cache replays): together with WallNS it is the
	// point's span on the sweep timeline, mirroring the trace_event
	// span the Runner's Tracer records.
	StartNS int64 `json:"start_ns,omitempty"`
	WallNS  int64 `json:"wall_ns"`
	Rows    int   `json:"rows"`
	// Worker names the cluster worker that executed the point, when the
	// sweep ran distributed (empty for in-process execution).
	Worker string `json:"worker,omitempty"`
	// Err records a failed or skipped (cancelled) point.
	Err string `json:"error,omitempty"`
	// CacheErr records a best-effort cache write that failed; the point
	// itself still succeeded.
	CacheErr string `json:"cache_error,omitempty"`
}

// SweepManifest summarizes one sweep execution.
type SweepManifest struct {
	Name     string `json:"name"`
	RootSeed uint64 `json:"root_seed"`
	Parallel int    `json:"parallel"`
	CacheHit int    `json:"cache_hits"`
	WallNS   int64  `json:"wall_ns"`
	// WallP50NS/WallP95NS/WallMaxNS are order statistics over the
	// successful points' execution wall times (cached points report the
	// wall time of their original execution), so a manifest shows at a
	// glance whether a sweep's tail is one slow point or the whole grid.
	WallP50NS int64         `json:"wall_p50_ns,omitempty"`
	WallP95NS int64         `json:"wall_p95_ns,omitempty"`
	WallMaxNS int64         `json:"wall_max_ns,omitempty"`
	Err       string        `json:"error,omitempty"`
	Points    []PointRecord `json:"points"`
	// Workers lists, for distributed sweeps, every worker that
	// contributed points, with the execution environment it reported at
	// registration. Serial sweeps leave it empty.
	Workers []WorkerRun `json:"workers,omitempty"`
}

// WorkerRun is one worker's contribution to a distributed sweep's
// manifest.
type WorkerRun struct {
	Worker    string  `json:"worker"`
	Env       *RunEnv `json:"env,omitempty"`
	Points    int     `json:"points"`
	CacheHits int     `json:"cache_hits,omitempty"`
	WallNS    int64   `json:"wall_ns,omitempty"`
}

// RunManifest is the machine-readable record of a whole siriussim
// invocation: every sweep it executed, with identities and timings, so a
// figure in a paper draft can be traced back to the exact configuration
// hashes that produced it.
type RunManifest struct {
	Command    string          `json:"command,omitempty"`
	StartedAt  time.Time       `json:"started_at"`
	FinishedAt time.Time       `json:"finished_at"`
	WallNS     int64           `json:"wall_ns"`
	Parallel   int             `json:"parallel"`
	RootSeed   uint64          `json:"root_seed"`
	Cache      string          `json:"cache,omitempty"`
	Env        *RunEnv         `json:"env,omitempty"`
	Sweeps     []SweepManifest `json:"sweeps"`
	Errors     []string        `json:"errors,omitempty"`
}

// RunEnv records the execution environment of a run, so a manifest's
// wall times can be compared across machines and toolchains.
type RunEnv struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnv snapshots the current process's execution environment.
func CaptureEnv() *RunEnv {
	return &RunEnv{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Canonical returns a copy of the manifest with every wall-clock,
// environment and execution-placement field zeroed, leaving only what
// the determinism contract pins: the sweep identity and, per point, the
// index, key, seed, content hash, row count and error. Two runs of the
// same sweep at the same root seed — serial, parallel, or distributed
// across a worker fleet with crashes and lease reclaims — must have
// equal Canonical forms.
func (m SweepManifest) Canonical() SweepManifest {
	out := SweepManifest{Name: m.Name, RootSeed: m.RootSeed}
	out.Points = make([]PointRecord, len(m.Points))
	for i, p := range m.Points {
		out.Points[i] = PointRecord{
			Index: p.Index,
			Key:   p.Key,
			Seed:  p.Seed,
			Hash:  p.Hash,
			Rows:  p.Rows,
			Err:   p.Err,
		}
	}
	return out
}

// Write encodes the manifest as indented JSON.
func (m *RunManifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
