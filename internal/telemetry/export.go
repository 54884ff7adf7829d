package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramPoint is one histogram series in a snapshot: cumulative
// counts are derived at export time; Buckets here are per-bucket
// (non-cumulative) counts indexed as in bucketIndex.
type HistogramPoint struct {
	Name    string  `json:"name"`
	Labels  string  `json:"labels,omitempty"`
	Buckets []int64 `json:"buckets"`
	Count   int64   `json:"count"`
	Sum     float64 `json:"sum"`
}

// Snapshot is a point-in-time copy of a registry, cheap to take
// (one pass over the series) and safe to read concurrently with
// ongoing writes. Series are sorted by name then labels, so encoding
// a snapshot is deterministic.
type Snapshot struct {
	TakenAt    time.Time        `json:"taken_at"`
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Snapshot reads every series into a Snapshot. Point-in-time:
// writes racing the snapshot land in either this snapshot or the next.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	ctrs := make([]*Counter, 0, len(r.ctrs))
	for _, c := range r.ctrs {
		ctrs = append(ctrs, c)
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, g := range r.gauges {
		gauges = append(gauges, g)
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, h := range r.hists {
		hists = append(hists, h)
	}
	r.mu.Unlock()

	s := &Snapshot{TakenAt: time.Now()}
	for _, c := range ctrs {
		s.Counters = append(s.Counters, CounterPoint{c.name, c.labels, c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugePoint{g.name, g.labels, g.Value()})
	}
	for _, h := range hists {
		hp := HistogramPoint{Name: h.name, Labels: h.labels, Buckets: make([]int64, histBuckets)}
		for b := 0; b < histBuckets; b++ {
			hp.Buckets[b] = h.buckets[b].Load()
		}
		hp.Sum = math.Float64frombits(h.sumBits.Load())
		for _, n := range hp.Buckets {
			hp.Count += n
		}
		s.Histograms = append(s.Histograms, hp)
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		a, b := s.Counters[i], s.Counters[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		a, b := s.Gauges[i], s.Gauges[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		a, b := s.Histograms[i], s.Histograms[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Labels < b.Labels
	})
	return s
}

// WritePrometheus writes the snapshot in Prometheus text exposition
// format (version 0.0.4): `# TYPE` lines, histogram `_bucket{le=...}`
// series with cumulative counts, `_sum` and `_count`.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	var lastType string
	typeLine := func(name, kind string) error {
		if name == lastType {
			return nil
		}
		lastType = name
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, c := range s.Counters {
		if err := typeLine(c.Name, "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %d\n", c.Name, c.Labels, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := typeLine(g.Name, "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", g.Name, g.Labels, formatFloat(g.Value)); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := typeLine(h.Name, "histogram"); err != nil {
			return err
		}
		var cum int64
		for b, n := range h.Buckets {
			cum += n
			le := formatLe(BucketBound(b))
			lbl := h.Labels
			if lbl == "" {
				lbl = fmt.Sprintf(`{le="%s"}`, le)
			} else {
				lbl = lbl[:len(lbl)-1] + fmt.Sprintf(`,le="%s"}`, le)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, lbl, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, h.Labels, formatFloat(h.Sum)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, h.Labels, h.Count); err != nil {
			return err
		}
	}
	return nil
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v != v:
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON writes the snapshot as indented JSON.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFileAtomic writes an artifact to path with write (an encoder such
// as Snapshot.WriteJSON): into a temp file of its own in path's
// directory, which is created if missing, then renamed over path. A
// reader never sees a partial file, and concurrent writers never share a
// temp file.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*")
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// CounterTotal sums all series of the named counter across label sets.
func (s *Snapshot) CounterTotal(name string) int64 {
	var t int64
	for _, c := range s.Counters {
		if c.Name == name {
			t += c.Value
		}
	}
	return t
}
