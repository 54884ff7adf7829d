package telemetry

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHammerCountersAndSnapshots runs GOMAXPROCS writer goroutines
// against concurrent snapshot readers. Under -race this is the data
// race oracle; the final sum check is the correctness oracle (no lost
// updates).
func TestHammerCountersAndSnapshots(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hammer_total")
	g := r.Gauge("hammer_gauge")
	h := r.Histogram("hammer_hist")

	writers := runtime.GOMAXPROCS(0)
	if writers < 2 {
		writers = 2
	}
	const perWriter = 20000

	var stop atomic.Bool
	var snaps sync.WaitGroup
	for i := 0; i < 2; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for !stop.Load() {
				s := r.Snapshot()
				// Monotone sanity: a snapshot may lag concurrent
				// writes but can never exceed the final total.
				if v := s.CounterTotal("hammer_total"); v < 0 || v > int64(writers*perWriter) {
					t.Errorf("snapshot counter out of range: %d", v)
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				c.Inc()
				h.Observe(rng.Float64() * 4)
				g.Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	snaps.Wait()

	want := int64(writers * perWriter)
	if got := c.Value(); got != want {
		t.Fatalf("lost updates: counter = %d, want %d", got, want)
	}
	s := r.Snapshot()
	var hp *HistogramPoint
	for i := range s.Histograms {
		if s.Histograms[i].Name == "hammer_hist" {
			hp = &s.Histograms[i]
		}
	}
	if hp == nil || hp.Count != want {
		t.Fatalf("histogram count = %+v, want %d", hp, want)
	}
}

// TestHealthHammer races condition setters/clearers against Status
// readers; -race is the oracle.
func TestHealthHammer(t *testing.T) {
	h := NewHealth(64)
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			key := string(rune('a' + w))
			for i := 0; i < 5000; i++ {
				h.SetCondition(key, "busy")
				_ = h.Healthy()
				h.ClearCondition(key)
			}
		}(w)
	}
	var stop atomic.Bool
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for !stop.Load() {
			_ = h.Status()
			_ = h.SawFlap()
		}
	}()
	writers.Wait()
	stop.Store(true)
	reader.Wait()
	if !h.Healthy() {
		t.Fatal("conditions left set after hammer")
	}
}
