// Package telemetry is the runtime observability plane: a registry of
// lock-free counters, gauges and log-bucketed histograms with cheap
// point-in-time snapshots, exporters (Prometheus text exposition, JSON
// snapshots, Chrome trace_event timelines), a health tracker with a
// bounded transition history, and an HTTP server exposing /metrics,
// /healthz and /debug/vars.
//
// Unlike internal/metrics — which computes *result* statistics (FCT
// percentiles, CDFs) after a run — this package answers "what is the
// system doing right now": how many cells the slot loop moved, how many
// frames each AWGR port routed, whether the live fabric is degraded.
//
// # Zero-alloc discipline
//
// Instrumentation sits inside the core slot loop and the fluid event
// loop, both of which carry AllocsPerRun == 0 contracts. Every hot-path
// operation here — Counter.Add, Gauge.Set and Histogram.Observe — is a
// plain atomic op on pre-allocated memory:
// no maps, no interfaces, no boxing. Series creation (GetOrCreate*)
// allocates and takes a mutex, so callers resolve series once at setup
// time and keep the returned handle.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter: one atomic int64.
type Counter struct {
	name   string
	labels string // canonical rendered label set, "" if none
	v      atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the counter. A point-in-time read; concurrent adds may or
// may not be included.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the series name (without labels).
func (c *Counter) Name() string { return c.name }

// Gauge is a float64 gauge: a value that can go up and down.
type Gauge struct {
	name   string
	labels string
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout: log base-2 buckets spanning [2^histMinExp,
// 2^histMaxExp), plus an underflow bucket (index 0) for values below
// 2^histMinExp (including zero and negatives) and an overflow (+Inf)
// bucket for everything at or above 2^histMaxExp, NaN included.
//
// With histMinExp = -20 (~1e-6) and histMaxExp = 63 (~9.2e18) the
// layout covers sub-microsecond spans through int64 nanosecond ranges
// at ~2x resolution in 85 buckets.
const (
	histMinExp = -20
	histMaxExp = 63
	// histBuckets = underflow + one bucket per exponent + overflow.
	histBuckets = 1 + (histMaxExp - histMinExp) + 1
)

// Histogram is a log-base-2 histogram.
type Histogram struct {
	name    string
	labels  string
	buckets [histBuckets]atomic.Int64
	sumBits atomic.Uint64 // running sum, float64 bits, CAS-updated
}

// bucketIndex maps a value to its bucket. Values land in the bucket
// whose half-open range [2^(e-1), 2^e) contains them, indexed so that
// bucket i (1 <= i <= histMaxExp-histMinExp) has upper bound
// 2^(histMinExp+i). Exact powers of two land in the bucket whose upper
// bound is the next power (Frexp(2^k) = (0.5, k+1)).
func bucketIndex(v float64) int {
	if v != v || v >= math.MaxFloat64 { // NaN or huge -> overflow
		return histBuckets - 1
	}
	_, exp := math.Frexp(v) // v = f * 2^exp, f in [0.5, 1)
	// v < 2^exp and v >= 2^(exp-1): upper bound is 2^exp.
	i := exp - histMinExp
	if i < 1 || v <= 0 {
		return 0 // underflow bucket (also zero, negatives, subnormals)
	}
	if i >= histBuckets-1 {
		return histBuckets - 1
	}
	return i
}

// addFloat CAS-adds v into the float64 bit pattern at bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Observe records v: one atomic add on the bucket and a CAS on the
// sum. Zero allocations.
func (h *Histogram) Observe(v float64) {
	h.buckets[bucketIndex(v)].Add(1)
	addFloat(&h.sumBits, v)
}

// BucketBound returns the inclusive upper bound of bucket i as used in
// Prometheus `le` labels: 2^histMinExp for the underflow bucket,
// +Inf for the last.
func BucketBound(i int) float64 {
	switch {
	case i <= 0:
		return math.Ldexp(1, histMinExp)
	case i >= histBuckets-1:
		return math.Inf(1)
	default:
		return math.Ldexp(1, histMinExp+i)
	}
}

// Registry holds named series. GetOrCreate* are mutex-guarded and may
// allocate; all returned handles are lock-free afterwards.
type Registry struct {
	mu     sync.Mutex
	names  map[string]seriesKind // name -> kind, for cross-kind collision checks
	ctrs   map[string]*Counter   // key = name + rendered labels
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

type seriesKind uint8

const (
	kindCounter seriesKind = iota + 1
	kindGauge
	kindHistogram
)

// Default is the process-wide registry used by package-level
// instrumentation in core, fluid, dc and wire.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		names:  make(map[string]seriesKind),
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// renderLabels canonicalizes a k1,v1,k2,v2,... list into a sorted
// `{k1="v1",k2="v2"}` string. Panics on odd-length lists or invalid
// label names: series are created at setup time, so misuse is a
// programming error, not a runtime condition.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("telemetry: odd label list")
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if !validName(labels[i]) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", labels[i]))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].k < pairs[b].k })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(p.v))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// validName reports whether s is a valid Prometheus metric/label name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func (r *Registry) checkName(name string, kind seriesKind) {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if k, ok := r.names[name]; ok && k != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered with two kinds", name))
	}
	r.names[name] = kind
}

// Counter returns the counter with the given name and label pairs
// (k1, v1, k2, v2, ...), creating it if needed.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	ls := renderLabels(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.ctrs[key]; ok {
		return c
	}
	r.checkName(name, kindCounter)
	c := &Counter{name: name, labels: ls}
	r.ctrs[key] = c
	return c
}

// Gauge returns the gauge with the given name and label pairs,
// creating it if needed.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	ls := renderLabels(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[key]; ok {
		return g
	}
	r.checkName(name, kindGauge)
	g := &Gauge{name: name, labels: ls}
	r.gauges[key] = g
	return g
}

// Histogram returns the histogram with the given name and label pairs,
// creating it if needed.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	ls := renderLabels(labels)
	key := name + ls
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	r.checkName(name, kindHistogram)
	h := &Histogram{name: name, labels: ls}
	r.hists[key] = h
	return h
}
