//go:build !race

package telemetry

import "testing"

// The hot-path telemetry operations sit inside the core slot loop and
// the fluid event loop, both of which carry AllocsPerRun == 0
// contracts (internal/core/alloc_test.go, fluid.TestEventLoopZeroAlloc).
// This pins the telemetry side of that bargain: counter increments,
// gauge sets and histogram observes must never allocate. (Build-tagged
// !race because race instrumentation changes allocation behavior, same
// as the other contracts.)
func TestTelemetryZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("za_total", "uplink", "0")
	g := r.Gauge("za_gauge")
	h := r.Histogram("za_hist")

	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Add", func() { c.Add(3) }},
		{"Counter.Inc", func() { c.Inc() }},
		{"Gauge.Set", func() { g.Set(1.25) }},
		{"Histogram.Observe", func() { h.Observe(2.5) }},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(300, tc.fn); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", tc.name, n)
		}
	}
}
