package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"sirius/internal/telemetry"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// tinyRun measures a tiny size of the workload for no measured time:
// set-up, a warm-up pass and the minimum two passes.
func tinyRun(t *testing.T, name string, trace bool, pinned digestTable) *result {
	t.Helper()
	o := options{workload: name, seed: 2, trace: trace, tiny: true, pinned: pinned, traceDir: t.TempDir()}
	res, _, err := measure(context.Background(), o, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, name, trace, nil)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			var got []string
			for n, m := range res.Metrics {
				got = append(got, n)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", name, n)
				}
				if !metricName.MatchString(n) {
					t.Errorf("%s: metric name %q", name, n)
				}
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, names(want)) {
				t.Errorf("%s trace=%v: metrics %v, want %v", name, trace, got, names(want))
			}
			if !trace {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
}

func TestWrongDigestFailsOperations(t *testing.T) {
	pinned := digestTable{"fig9_load_sweep": {}} // every operation's digest is wrong
	res := tinyRun(t, "fig9_load_sweep", false, pinned)
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want every operation failed", res.Correct, res.Attempted, res.Failed)
	}
	if got, want := len(res.Metrics), len(endToEnd); got != want {
		t.Errorf("%d metrics, want the %d end-to-end ones", got, want)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric and workload lists in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", wl, workloadNames)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, program %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	pinned, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if len(pinned[w]) == 0 {
			t.Errorf("digests.json pins no operation of %s", w)
		}
	}
}

// TestRationaleCoversMetrics checks that rationale.json describes every
// workload and predicts, for every per-layer metric, which end-to-end
// metric it should move.
func TestRationaleCoversMetrics(t *testing.T) {
	data, err := os.ReadFile("rationale.json")
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Workloads   map[string]json.RawMessage
		Predictions []struct {
			LayerMetrics []string `json:"layer_metrics"`
			Moves        []string
			On           []string
		}
	}
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if r.Workloads[w] == nil {
			t.Errorf("rationale.json does not describe %s", w)
		}
	}
	predicted := map[string]bool{}
	for _, p := range r.Predictions {
		for _, name := range p.LayerMetrics {
			if !strings.Contains(name, "<f>") {
				predicted[name] = true
				continue
			}
			for _, f := range families {
				predicted[strings.ReplaceAll(name, "<f>", f)] = true
			}
		}
		for _, m := range p.Moves {
			if !slices.ContainsFunc(endToEnd, func(e metricDef) bool { return e.name == m }) {
				t.Errorf("prediction moves unknown end-to-end metric %q", m)
			}
		}
	}
	for _, d := range perLayer {
		if !predicted[d.name] {
			t.Errorf("no prediction for %s", d.name)
		}
		delete(predicted, d.name)
	}
	for name := range predicted {
		t.Errorf("prediction names unknown metric %s", name)
	}
}

func TestSelfTimes(t *testing.T) {
	span := func(id, parent string, ts, dur int64) telemetry.TraceEvent {
		return telemetry.TraceEvent{Name: "s" + id, Ph: "X", TS: ts, Dur: dur, Args: map[string]string{"id": id, "parent": parent}}
	}
	events := []telemetry.TraceEvent{
		span("1", "0", 0, 100),
		span("2", "1", 10, 40), // overlapping children count once
		span("3", "1", 30, 40),
		span("4", "3", 30, 5),
		{Name: "epoch", Ph: "X", TS: 0, Dur: 100}, // no id: not part of the tree
	}
	nodes, self := selfTimes(events)
	got := map[string]int64{}
	for i, n := range nodes {
		got[n.name] = self[i]
	}
	want := map[string]int64{"s1": 40, "s2": 40, "s3": 35, "s4": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
