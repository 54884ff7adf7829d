package telemetry

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
	// Same name+labels -> same series.
	if r.Counter("test_total") != c {
		t.Fatal("GetOrCreate returned a different counter for the same key")
	}
	// Different labels -> different series.
	c2 := r.Counter("test_total", "node", "1")
	if c2 == c {
		t.Fatal("labelled series aliased the unlabelled one")
	}
	c2.Add(7)
	if c.Value() != 42 || c2.Value() != 7 {
		t.Fatalf("series not independent: %d %d", c.Value(), c2.Value())
	}
}

func TestLabelCanonicalization(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("lbl_total", "b", "2", "a", "1")
	b := r.Counter("lbl_total", "a", "1", "b", "2")
	if a != b {
		t.Fatal("label order changed series identity")
	}
	if a.labels != `{a="1",b="2"}` {
		t.Fatalf("labels rendered %q", a.labels)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("Value = %g", g.Value())
	}
	g.SetInt(9)
	if g.Value() != 9 {
		t.Fatalf("after SetInt, Value = %g", g.Value())
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	// Satellite: bucket-boundary edge cases — 0, max, +Inf overflow.
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{-1, 0},
		{math.Ldexp(1, histMinExp-3), 0}, // below range -> underflow
		{math.SmallestNonzeroFloat64, 0}, // subnormal -> underflow
		{math.Ldexp(1, histMinExp), 1},   // exactly 2^min -> first real bucket
		{1.0, 1 - histMinExp},            // 1.0 = 2^0: Frexp exp=1 -> bucket [1,2)
		{1.5, 1 - histMinExp},            // same bucket [1,2)
		{math.Ldexp(1, histMaxExp-1), histBuckets - 2}, // top finite bucket
		{math.Ldexp(1, histMaxExp), histBuckets - 1},   // 2^max -> overflow
		{math.MaxFloat64, histBuckets - 1},
		{math.Inf(1), histBuckets - 1},
		{math.NaN(), histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
	// Every value must land in a bucket whose le bound >= value
	// (half-open lower, inclusive upper at exact powers of two).
	for _, v := range []float64{1e-6, 0.1, 0.5, 1, 2, 3, 1024, 1e9, 1e18} {
		i := bucketIndex(v)
		if ub := BucketBound(i); v > ub {
			t.Errorf("value %g above its bucket bound %g (bucket %d)", v, ub, i)
		}
		// Buckets are half-open [2^(e-1), 2^e): a value strictly below
		// the previous bound would be misbucketed. Exact powers of two
		// sit ON the previous bound by design (documented
		// approximation of Prometheus' inclusive le).
		if i > 0 {
			if lb := BucketBound(i - 1); v < lb {
				t.Errorf("value %g below previous bound %g (bucket %d)", v, lb, i)
			}
		}
	}
}

func TestHistogramObserveAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds")
	for _, v := range []float64{0.5, 0.5, 2, 1e30} {
		h.Observe(v)
	}
	h.Observe(4)
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(s.Histograms))
	}
	hp := s.Histograms[0]
	if hp.Count != 5 {
		t.Fatalf("Count = %d, want 5", hp.Count)
	}
	wantSum := 0.5 + 0.5 + 2 + 1e30 + 4
	if math.Abs(hp.Sum-wantSum) > 1e15 { // 1e30 dominates; allow fp slack
		t.Fatalf("Sum = %g, want %g", hp.Sum, wantSum)
	}
	if hp.Buckets[histBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", hp.Buckets[histBuckets-1])
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total").Inc()
	r.Counter("a_total").Inc()
	r.Counter("a_total", "x", "2").Inc()
	r.Counter("a_total", "x", "1").Inc()
	s := r.Snapshot()
	var keys []string
	for _, c := range s.Counters {
		keys = append(keys, c.Name+c.Labels)
	}
	want := []string{`a_total`, `a_total{x="1"}`, `a_total{x="2"}`, `z_total`}
	if len(keys) != len(want) {
		t.Fatalf("got %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("order %v, want %v", keys, want)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("cells_total", "uplink", "0").Add(10)
	r.Gauge("occupancy").Set(0.25)
	h := r.Histogram("fct_seconds")
	h.Observe(0.75)
	h.Observe(3)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE cells_total counter",
		`cells_total{uplink="0"} 10`,
		"# TYPE occupancy gauge",
		"occupancy 0.25",
		"# TYPE fct_seconds histogram",
		`fct_seconds_bucket{le="+Inf"} 2`,
		"fct_seconds_sum 3.75",
		"fct_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Cumulative le buckets must be non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "fct_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative at %q", line)
		}
		last = v
	}
}

// fmtSscan pulls the trailing integer off a metric line.
func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, nil
	}
	var n int64
	_, err := parseInt(line[i+1:], &n)
	*v = n
	return 1, err
}

func parseInt(s string, out *int64) (int, error) {
	var n int64
	neg := false
	for i, c := range s {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	*out = n
	return 1, nil
}

var errBadInt = errString("bad int")

type errString string

func (e errString) Error() string { return string(e) }

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q did not panic", bad)
				}
			}()
			r.Counter(bad)
		}()
	}
	// Cross-kind collision must panic too.
	r.Counter("kinded")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-kind reuse did not panic")
			}
		}()
		r.Gauge("kinded")
	}()
}

func TestHealthTransitions(t *testing.T) {
	h := NewHealth(8)
	if !h.Healthy() {
		t.Fatal("fresh health not healthy")
	}
	h.SetCondition("node0/link", "reconnecting")
	if h.Healthy() {
		t.Fatal("healthy with a condition set")
	}
	h.SetCondition("node1/peer2", "suspected")
	h.ClearCondition("node0/link")
	if h.Healthy() {
		t.Fatal("healthy with one condition remaining")
	}
	h.ClearCondition("node1/peer2")
	if !h.Healthy() {
		t.Fatal("not healthy after all conditions cleared")
	}
	if !h.SawFlap() {
		t.Fatal("SawFlap false after degraded->healthy")
	}
	st := h.Status()
	if st.Status != "healthy" || len(st.Conditions) != 0 {
		t.Fatalf("status %+v", st)
	}
	// Exactly two transitions: one flip down, one flip up.
	if n := len(st.Transitions); n != 2 {
		t.Fatalf("%d transitions, want 2: %+v", n, st.Transitions)
	}
	if st.Transitions[0].Healthy || !st.Transitions[1].Healthy {
		t.Fatalf("transition order wrong: %+v", st.Transitions)
	}
}

func TestHealthHistoryBounded(t *testing.T) {
	h := NewHealth(4)
	for i := 0; i < 20; i++ {
		h.SetCondition("k", "x")
		h.ClearCondition("k")
	}
	if n := len(h.History()); n != 4 {
		t.Fatalf("history length %d, want 4", n)
	}
}

func TestNilSafety(t *testing.T) {
	var h *Health
	h.SetCondition("a", "b")
	h.ClearCondition("a")
	if !h.Healthy() || h.SawFlap() || h.History() != nil {
		t.Fatal("nil Health misbehaved")
	}
	if h.Status().Status != "healthy" {
		t.Fatal("nil Health status")
	}
	var tr *Tracer
	tr.Complete("x", "c", 0, time.Now(), 0, nil)
	tr.Instant("y", "c", 0, nil)
	tr.Span("z", "c", 0, time.Now(), nil)
	if tr.Events() != nil || tr.Dropped() != 0 {
		t.Fatal("nil Tracer misbehaved")
	}
}
