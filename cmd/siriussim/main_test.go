package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

func TestParseFloats(t *testing.T) {
	got, err := parseFloats("0.1, 0.5,1.0")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0.1 || got[2] != 1.0 {
		t.Errorf("parseFloats = %v", got)
	}
	if _, err := parseFloats("a,b"); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := parseFloats(""); err == nil {
		t.Error("empty accepted")
	}
	if _, err := parseFloats(" , ,"); err == nil {
		t.Error("blank list accepted")
	}
}

// captureRun runs the CLI with stdout redirected and returns (output, exit code).
func captureRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run(args)
	w.Close()
	os.Stdout = old
	buf := make([]byte, 0, 1<<16)
	tmp := make([]byte, 4096)
	for {
		n, rerr := r.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if rerr != nil {
			break
		}
	}
	return string(buf), code
}

func TestRunUnknownExperimentAndScale(t *testing.T) {
	if _, code := captureRun(t, "-exp", "nope", "-manifest", ""); code != 2 {
		t.Errorf("unknown experiment exit = %d, want 2", code)
	}
	if _, code := captureRun(t, "-scale", "galactic", "-manifest", ""); code != 2 {
		t.Errorf("unknown scale exit = %d, want 2", code)
	}
}

func TestRunSerialParallelIdentical(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-exp", "fig9", "-scale", "tiny", "-loads", "0.25,0.75",
		"-cache=false", "-manifest", filepath.Join(dir, "m.json")}
	serial, code := captureRun(t, append([]string{"-parallel", "1"}, common...)...)
	if code != 0 {
		t.Fatalf("serial exit = %d", code)
	}
	par, code := captureRun(t, append([]string{"-parallel", "4"}, common...)...)
	if code != 0 {
		t.Fatalf("parallel exit = %d", code)
	}
	if serial != par {
		t.Fatalf("-parallel 4 output differs from -parallel 1:\n%s\nvs\n%s", serial, par)
	}
	if !strings.Contains(serial, "Fig 9") {
		t.Fatalf("missing table:\n%s", serial)
	}
	// The manifest landed and carries the sweep record.
	data, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m sweep.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Sweeps) != 1 || m.Sweeps[0].Name != "fig9" || len(m.Sweeps[0].Points) != 2 {
		t.Fatalf("manifest sweeps = %+v", m.Sweeps)
	}
}

func TestRunWarmCacheReplays(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-exp", "fig10", "-scale", "tiny", "-loads", "0.5",
		"-parallel", "2", "-cachedir", filepath.Join(dir, "cache"),
		"-manifest", filepath.Join(dir, "m.json")}
	cold, code := captureRun(t, args...)
	if code != 0 {
		t.Fatalf("cold exit = %d", code)
	}
	warm, code := captureRun(t, args...)
	if code != 0 {
		t.Fatalf("warm exit = %d", code)
	}
	if cold != warm {
		t.Fatal("warm-cache output differs from cold output")
	}
	data, err := os.ReadFile(filepath.Join(dir, "m.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m sweep.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Sweeps) != 1 || m.Sweeps[0].CacheHit != len(m.Sweeps[0].Points) {
		t.Fatalf("warm run not fully cached: %+v", m.Sweeps)
	}
}

func TestRunFailureStillWritesManifest(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	// -exp custom without -trace fails; the manifest must still flush and
	// the exit code must be non-zero.
	_, code := captureRun(t, "-exp", "custom", "-cache=false", "-manifest", manifest)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	data, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatalf("manifest not written: %v", err)
	}
	if !strings.Contains(string(data), "custom") {
		t.Errorf("manifest does not record the failure:\n%s", data)
	}
}

// TestObservabilityArtifacts runs a sweep experiment with every
// observability flag set and checks all four artifacts: a
// schema-valid Chrome trace with experiment and sweep-point spans, a
// perf JSON summary, a telemetry registry snapshot carrying the core
// counters, and a manifest with environment and wall-time percentiles.
func TestObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	traceOut := filepath.Join(dir, "trace.json")
	perfOut := filepath.Join(dir, "perf.json")
	telOut := filepath.Join(dir, "telemetry.json")
	_, code := captureRun(t, "-exp", "fig9", "-scale", "tiny", "-loads", "0.5",
		"-cache=false", "-manifest", manifest,
		"-trace-events", traceOut, "-perfjson", perfOut, "-telemetry-out", telOut)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}

	// Trace: schema-checked, with the experiment span and the point span.
	data, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateTrace(data); err != nil {
		t.Fatalf("trace schema: %v", err)
	}
	var tf struct {
		TraceEvents []telemetry.TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	var sawExp, sawPoint bool
	for _, ev := range tf.TraceEvents {
		switch {
		case ev.Name == "fig9" && ev.Cat == "experiment":
			sawExp = true
		case ev.Name == "point" && ev.Cat == "sweep":
			sawPoint = true
		}
	}
	if !sawExp || !sawPoint {
		t.Errorf("trace missing spans: experiment=%v point=%v", sawExp, sawPoint)
	}

	// Perf JSON: one record for the experiment, with wall time, cells and
	// the process's peak resident set.
	data, err = os.ReadFile(perfOut)
	if err != nil {
		t.Fatal(err)
	}
	var recs []struct {
		Exp       string   `json:"exp"`
		WallNS    int64    `json:"wall_ns"`
		Cells     int64    `json:"cells"`
		PeakRSSMB *float64 `json:"peak_rss_mb"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Exp != "fig9" || recs[0].WallNS <= 0 || recs[0].Cells <= 0 {
		t.Errorf("perf records = %+v", recs)
	}
	if len(recs) == 1 && (recs[0].PeakRSSMB == nil || *recs[0].PeakRSSMB <= 0) {
		t.Errorf("perf record has no positive peak_rss_mb: %s", data)
	}

	// Telemetry snapshot: the core simulator flushed its counters.
	data, err = os.ReadFile(telOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, c := range snap.Counters {
		if c.Value > 0 {
			found[c.Name] = true
		}
	}
	for _, want := range []string{
		"sirius_core_runs_total",
		"sirius_core_cells_delivered_total",
		"sirius_sweep_points_total",
	} {
		if !found[want] {
			t.Errorf("telemetry snapshot missing %s > 0", want)
		}
	}

	// Manifest: environment and percentile summary present.
	data, err = os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m sweep.RunManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Env == nil || m.Env.GoVersion == "" || m.Env.GOMAXPROCS < 1 {
		t.Fatalf("manifest env = %+v", m.Env)
	}
	if len(m.Sweeps) != 1 || m.Sweeps[0].WallP50NS <= 0 || m.Sweeps[0].WallMaxNS < m.Sweeps[0].WallP50NS {
		t.Fatalf("manifest percentiles = %+v", m.Sweeps)
	}
	var sawStart bool
	for _, p := range m.Sweeps[0].Points {
		if p.StartNS >= 0 && p.WallNS > 0 {
			sawStart = true
		}
	}
	if !sawStart {
		t.Error("manifest points carry no spans")
	}
}
