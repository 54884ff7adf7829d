package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"

	"sirius/internal/exp"
	"sirius/internal/telemetry"
)

// freePort reserves an ephemeral TCP address and releases it for the
// coordinator to claim. (A small window exists between Close and the
// coordinator's Listen; acceptable in a test on one machine.)
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestClusterCLIEndToEnd drives the full distributed story through the
// real CLI entry point: a coordinator serving fig9, one worker scripted
// by a fault plan to crash on its first lease, then two survivors. The
// coordinator's stdout must be byte-identical to a serial -parallel 1
// run, the crash must surface as a reclaimed lease in the telemetry
// snapshot, and the run manifest must carry per-worker provenance.
func TestClusterCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()

	serialOut, code := captureRun(t, "-exp", "fig9", "-scale", "tiny",
		"-parallel", "1", "-cache=false", "-manifest", "", "-perf=false")
	if code != 0 {
		t.Fatalf("serial run exit = %d", code)
	}

	plan := filepath.Join(dir, "plan.json")
	if err := os.WriteFile(plan, []byte(`{"seed":1,"events":[{"kind":"crash","epoch":0,"node":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	telOut := filepath.Join(dir, "telemetry.json")
	perfOut := filepath.Join(dir, "perf.json")
	manifestOut := filepath.Join(dir, "manifest.json")
	addr := freePort(t)
	// The registry is process-wide and outlives this run (-count=N), so
	// the counters below are deltas from this snapshot.
	before := telemetry.Default.Snapshot()

	// One stdout capture around the whole scenario: only the coordinator
	// prints the table; workers write to stderr alone.
	oldStdout := os.Stdout
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = pw

	coordDone := make(chan int, 1)
	go func() {
		coordDone <- run([]string{"-exp", "fig9", "-scale", "tiny",
			"-serve", addr, "-lease-ttl", "2s", "-cache=false",
			"-manifest", manifestOut, "-perfjson", perfOut,
			"-telemetry-out", telOut, "-perf=false"})
	}()

	// The doomed worker runs synchronously: it must take the first lease
	// and die with the crash exit code before any survivor exists, which
	// guarantees the coordinator reclaims at least one lease.
	doomedCode := run([]string{"-worker", addr, "-worker-name", "doomed",
		"-worker-id", "1", "-faultplan", plan, "-cache=false"})

	w2 := make(chan int, 1)
	w3 := make(chan int, 1)
	go func() {
		w2 <- run([]string{"-worker", addr, "-worker-name", "w2", "-worker-id", "2", "-cache=false"})
	}()
	go func() {
		w3 <- run([]string{"-worker", addr, "-worker-name", "w3", "-worker-id", "3", "-cache=false"})
	}()

	coordCode := <-coordDone
	w2Code, w3Code := <-w2, <-w3

	pw.Close()
	os.Stdout = oldStdout
	var clusterOut []byte
	tmp := make([]byte, 4096)
	for {
		n, rerr := pr.Read(tmp)
		clusterOut = append(clusterOut, tmp[:n]...)
		if rerr != nil {
			break
		}
	}

	if doomedCode != exitCrashed {
		t.Errorf("doomed worker exit = %d, want %d", doomedCode, exitCrashed)
	}
	if coordCode != 0 || w2Code != 0 || w3Code != 0 {
		t.Fatalf("exits: coordinator=%d w2=%d w3=%d, want all 0", coordCode, w2Code, w3Code)
	}
	if string(clusterOut) != serialOut {
		t.Errorf("cluster output diverges from serial output\ncluster:\n%s\nserial:\n%s", clusterOut, serialOut)
	}

	// The crash is observable: this run's telemetry counts >= 1 reclaimed
	// lease and every point completed.
	var tel struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	raw, err := os.ReadFile(telOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &tel); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range tel.Counters {
		counters[c.Name] += c.Value
	}
	for name := range counters {
		counters[name] -= before.CounterTotal(name)
	}
	if counters["sirius_cluster_leases_reclaimed_total"] < 1 {
		t.Errorf("reclaimed = %d, want >= 1 (crashed worker held a lease)", counters["sirius_cluster_leases_reclaimed_total"])
	}
	if counters["sirius_cluster_workers_registered_total"] < 3 {
		t.Errorf("registered = %d, want >= 3", counters["sirius_cluster_workers_registered_total"])
	}

	// Manifest: the fig9 sweep carries per-worker provenance whose point
	// counts add up to the full grid (the doomed worker completed none),
	// each with the environment its worker registered with.
	var man struct {
		Sweeps []struct {
			Name    string `json:"name"`
			Points  []any  `json:"points"`
			Workers []struct {
				Worker string `json:"worker"`
				Points int    `json:"points"`
				Env    *struct {
					GoVersion string `json:"go_version"`
				} `json:"env"`
			} `json:"workers"`
		} `json:"sweeps"`
	}
	raw, err = os.ReadFile(manifestOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Sweeps) != 1 || man.Sweeps[0].Name != "fig9" {
		t.Fatalf("manifest sweeps: %+v", man.Sweeps)
	}
	total := 0
	for _, w := range man.Sweeps[0].Workers {
		if w.Worker == "doomed" && w.Points > 0 {
			t.Errorf("doomed worker credited with %d point(s)", w.Points)
		}
		if w.Env == nil || w.Env.GoVersion == "" {
			t.Errorf("worker %s has no RunEnv in the manifest", w.Worker)
		}
		total += w.Points
	}
	if total != len(man.Sweeps[0].Points) {
		t.Errorf("worker provenance accounts for %d/%d points", total, len(man.Sweeps[0].Points))
	}
	if counters["sirius_cluster_points_completed_total"] != int64(len(man.Sweeps[0].Points)) {
		t.Errorf("completed counter = %d, want %d", counters["sirius_cluster_points_completed_total"], len(man.Sweeps[0].Points))
	}

	// -perfjson: the coordinator role reports distributed throughput.
	var perf []struct {
		Exp          string  `json:"exp"`
		Role         string  `json:"role"`
		Points       int64   `json:"points"`
		PointsPerSec float64 `json:"points_per_second"`
	}
	raw, err = os.ReadFile(perfOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &perf); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range perf {
		if p.Role == "coordinator" {
			found = true
			if p.Exp != "fig9" || p.Points != int64(len(man.Sweeps[0].Points)) || p.PointsPerSec <= 0 {
				t.Errorf("coordinator perf record %+v", p)
			}
		}
	}
	if !found {
		t.Error("no coordinator record in -perfjson output")
	}
}

// TestClusterRoleValidation pins the role flags' guard rails: -serve
// refuses non-sweep experiments and -serve/-worker are exclusive.
func TestClusterRoleValidation(t *testing.T) {
	if _, code := captureRun(t, "-exp", "fig2a", "-serve", "127.0.0.1:0", "-manifest", ""); code != 2 {
		t.Errorf("-serve with non-sweep experiment exit = %d, want 2", code)
	}
	if _, code := captureRun(t, "-exp", "all", "-serve", "127.0.0.1:0", "-manifest", ""); code != 2 {
		t.Errorf("-serve with -exp all exit = %d, want 2", code)
	}
	if _, code := captureRun(t, "-serve", "127.0.0.1:0", "-worker", "127.0.0.1:1", "-exp", "fig9", "-manifest", ""); code != 2 {
		t.Errorf("-serve + -worker exit = %d, want 2", code)
	}
}

// TestScaleByName pins every -scale name to its preset. run() and the
// worker role both resolve through scaleByName, so a coordinator can
// never start at a scale its workers do not know.
func TestScaleByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want exp.Scale
	}{
		{"tiny", exp.TinyScale()},
		{"small", exp.SmallScale()},
		{"paper", exp.PaperScale()},
		{"xl", exp.XLScale()},
	} {
		got, err := scaleByName(tc.name)
		if err != nil {
			t.Errorf("scaleByName(%q): %v", tc.name, err)
		} else if got != tc.want {
			t.Errorf("scaleByName(%q) = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if _, err := scaleByName("galactic"); err == nil {
		t.Error("scaleByName accepted an unknown scale")
	}
}
