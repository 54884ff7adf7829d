//go:build !race

// The steady-state allocation test is skipped under the race detector:
// its instrumentation changes the allocation behavior testing.AllocsPerRun
// observes. The CI benchmark-smoke job runs it without -race.

package fluid

import (
	"testing"

	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// stepDriver builds a warmed engine and returns a closure advancing one
// event, mirroring the loop in RunContext.
func stepDriver(t *testing.T, cfg Config, nflows int, seed uint64) (e *engine, stepOnce func()) {
	t.Helper()
	wcfg := workload.DefaultConfig(cfg.Endpoints, cfg.EndpointRate, 0.85, nflows)
	wcfg.Seed = seed
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err = newEngine(cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	return e, func() {
		if err := e.step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEventLoopZeroAlloc pins the zero-allocation contract of the fluid
// event loop: with the dense flow table, member lists, FCT samples and
// solver scratch all preallocated by newEngine, processing an event
// (arrival or completion, including the full max-min reallocation)
// performs no heap allocations — at every depth of the bottleneck tree.
// The depth cases span one to three levels: 16 constraints, fig9's
// ESN-OSUB shape (144) and 1,024. The scan and heap cases keep the names
// of the two selection paths the tree replaced.
func TestEventLoopZeroAlloc(t *testing.T) {
	rate := 400 * simtime.Gbps
	cases := []struct {
		name  string
		cfg   Config
		depth int
	}{
		{"scan_ideal", Config{Endpoints: 32, EndpointRate: rate,
			Oversub: 1, BaseRTT: simtime.Microsecond}, 2},
		{"scan_osub3", Config{Endpoints: 32, EndpointRate: rate,
			EndpointsPerRack: 8, Oversub: 3, BaseRTT: simtime.Microsecond}, 2},
		{"heap_ideal", Config{Endpoints: 128, EndpointRate: rate,
			Oversub: 1, BaseRTT: simtime.Microsecond}, 2},
		{"depth1_n8", Config{Endpoints: 8, EndpointRate: rate,
			Oversub: 1, BaseRTT: simtime.Microsecond}, 1},
		{"depth2_osub3_n64", Config{Endpoints: 64, EndpointRate: rate,
			EndpointsPerRack: 8, Oversub: 3, BaseRTT: simtime.Microsecond}, 2},
		{"depth3_n512", Config{Endpoints: 512, EndpointRate: rate,
			Oversub: 1, BaseRTT: simtime.Microsecond}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, stepOnce := stepDriver(t, tc.cfg, 3000, 11)
			if got := e.tree.depth(); got != tc.depth {
				t.Fatalf("%d constraints make a tree of depth %d, want %d", e.nCons, got, tc.depth)
			}
			// Warm up into the steady state: plenty of arrivals consumed
			// and completions recorded, far from draining.
			for i := 0; i < 2000 && !e.done(); i++ {
				stepOnce()
			}
			if e.done() {
				t.Fatal("workload drained during warm-up; enlarge it")
			}
			if avg := testing.AllocsPerRun(300, stepOnce); avg != 0 {
				t.Errorf("steady-state event allocates %.2f objects, want 0", avg)
			}
			if e.done() {
				t.Fatal("workload drained during measurement; enlarge it")
			}
		})
	}
}
