//go:build !race

// The steady-state allocation tests are skipped under the race detector:
// its instrumentation changes the allocation behavior testing.AllocsPerRun
// observes. The CI benchmark-smoke job runs them without -race.

package core

import (
	"context"
	"testing"

	"sirius/internal/phy"
	"sirius/internal/schedule"
	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// stepDriver builds a warmed simulator and returns a closure advancing one
// slot, mirroring the slot loop in run().
func stepDriver(t *testing.T, mutate func(*Config)) (s *sim, stepOnce func()) {
	t.Helper()
	sched, err := schedule.NewGrouped(16, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := workload.DefaultConfig(16, 200*simtime.Gbps, 0.75, 4000)
	wcfg.Seed = 7
	flows, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Schedule:      sched,
		Slot:          phy.DefaultSlot(),
		Q:             4,
		NormalizeRate: 200 * simtime.Gbps,
		Seed:          42,
	}
	mutate(&cfg)
	s, err = newSim(context.Background(), cfg, flows)
	if err != nil {
		t.Fatal(err)
	}
	// Inject the whole workload up front so the system stays busy for the
	// duration of the measurement.
	for f := range flows {
		s.inject(int32(f))
	}
	slotDur := cfg.Slot.Duration()
	epochE := int64(s.epochE)
	var slot int64
	return s, func() {
		now := simtime.Time(slot * int64(slotDur))
		if s.pendingQ != nil && s.pendingOut > 0 {
			s.drainPending()
		}
		s.step(int(slot%epochE), now.Add(slotDur))
		slot++
	}
}

// TestRunSteadyStateZeroAlloc pins the zero-allocation contract of the hot
// path: once the cell pools have seen their peak and the congestion
// controller's grant buffers have grown to their high-water mark, an
// epoch of slots performs no heap allocations in any operating mode.
func TestRunSteadyStateZeroAlloc(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		warm    int
		engines int // engines stepped in turn; 0 means 1
	}{
		{"requestgrant", func(c *Config) {}, 4000, 0},
		{"ideal", func(c *Config) { c.Mode = ModeIdeal }, 4000, 0},
		{"direct", func(c *Config) { c.Mode = ModeDirect }, 4000, 0},
		{"paced", func(c *Config) { c.InjectRate = 4; c.LocalCap = 64 }, 4000, 0},
		// Four engines of one configuration stepped in turn on one
		// goroutine, as engines share a CPU in a parallel sweep: each owns
		// its pools, fifos and grant buffers, so interleaving them must
		// stay allocation-free too.
		{"requestgrant_sharded", func(c *Config) {}, 4000, 4},
		{"ideal_sharded", func(c *Config) { c.Mode = ModeIdeal }, 4000, 4},
		{"direct_sharded", func(c *Config) { c.Mode = ModeDirect }, 4000, 4},
		{"paced_sharded", func(c *Config) { c.InjectRate = 4; c.LocalCap = 64 }, 4000, 4},
		// Dynamic planners (the golden 16-node families, 4-slot epochs):
		// replan's demand snapshot and every Plan must be allocation-free
		// once the planner's per-plan scratch exists.
		{"sched_rotor", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("rotor")
			c.Mode = ModeIdeal
		}, 4000, 0},
		{"sched_pulse", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("pulse")
			c.Mode = ModeDirect
		}, 4000, 0},
		{"sched_negotiator", func(c *Config) {
			c.Schedule, c.Planner = nil, goldenPlanner("negotiator")
			c.Mode = ModeDirect
		}, 4000, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sims := make([]*sim, max(tc.engines, 1))
			steps := make([]func(), len(sims))
			for i := range sims {
				sims[i], steps[i] = stepDriver(t, tc.mutate)
				for w := 0; w < tc.warm && sims[i].out > 0; w++ {
					steps[i]()
				}
				if sims[i].out == 0 {
					t.Fatal("workload drained during warm-up; enlarge it")
				}
			}
			// Measure whole epochs: AllocsPerRun truncates the average, so
			// per-slot runs would hide an allocation made only at the epoch
			// boundary (control plane, replan, Plan).
			epoch := func() {
				for i, s := range sims {
					for e := 0; e < s.epochE; e++ {
						steps[i]()
					}
				}
			}
			if avg := testing.AllocsPerRun(300/sims[0].epochE, epoch); avg != 0 {
				t.Errorf("steady-state epoch allocates %.2f objects/epoch, want 0", avg)
			}
			for _, s := range sims {
				if s.out == 0 {
					t.Fatal("workload drained during measurement; enlarge it")
				}
			}
		})
	}
}

// TestPoolSteadyStateRecycling checks the pool's contract directly: once
// one fill-and-drain cycle over queues sharing the pool has grown it to
// the peak, further cycles take every cell from the free list and
// allocate nothing, and the pool never holds more cells than that peak.
func TestPoolSteadyStateRecycling(t *testing.T) {
	const cells = 4096
	var p pool[int64]
	qs := make([]fifo[int64], 8)
	cycle := func() {
		for i := int64(0); i < cells; i++ {
			qs[i%int64(len(qs))].push(i, &p)
		}
		for q := range qs {
			for !qs[q].empty() {
				qs[q].pop(&p)
			}
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("fill/drain cycle allocates %.2f objects, want 0", avg)
	}
	if got := len(p.cells) - 1; got != cells {
		t.Errorf("pool holds %d cells after cycles peaking at %d", got, cells)
	}
}
