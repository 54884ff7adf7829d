// Command perfbench is the repository's benchmark. It runs one workload,
// composed from the layers' public entry points, for a fixed time and
// prints its metrics by name with their units. The last line of its
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are end to end (wall_s, cpu_s, setup_s,
// peak_rss_mb), measured with tracing off. With -trace 1 the run
// alternates untraced and traced passes and reports per-layer metrics
// from the last traced pass. Every layer run's output is checked; see
// check.go. Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload fig9_load_sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"sirius/internal/sweep"
	"sirius/internal/telemetry"
)

// Before each pass, set-up is repeated at least minSetupReps times and
// for at least minSetupTime; setup_s is the median over the run.
const (
	minSetupReps = 5
	minSetupTime = 50 * time.Millisecond
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"wall_s", "s"}, {"cpu_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"},
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tiny     bool        // self-test sizes
	pinned   digestTable // digests to compare against; nil compares none
	traceDir string      // where the traced run's Chrome trace goes; "" = nowhere
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", recordedSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for the traced run's Chrome trace (empty = none)")
	record := fs.String("record", "", "write the run's result digests into this digest file (seed 1 only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace %d: want 0 or 1\n", *trace)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o := options{workload: *name, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, traceDir: *traceDir}
	if *record != "" && o.seed != recordedSeed {
		fmt.Fprintf(stderr, "perfbench: -record needs -seed %d\n", recordedSeed)
		return 2
	}
	if o.seed == recordedSeed && *record == "" {
		t, err := loadDigests()
		if err != nil {
			return fail(err)
		}
		o.pinned = t
	}
	res, b, err := measure(context.Background(), o, stderr)
	if err != nil {
		return fail(err)
	}
	if *record != "" {
		if err := recordDigests(*record, o.workload, b.first); err != nil {
			return fail(err)
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(o, b)})
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(prov))
	line, err := json.Marshal(res)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one run's state: the workload and the checked operations.
type bench struct {
	o      options
	w      benchWorkload
	log    io.Writer
	first  map[string]string // op -> digest of its first run
	tried  int
	failed int
}

// check counts a pass's operations and fails those whose run failed,
// whose digest differs from the operation's first run, or whose digest
// differs from the pinned one.
func (b *bench) check(ops []op) {
	pinned := b.o.pinned[b.o.workload]
	for _, o := range ops {
		b.tried++
		err := o.err
		if err == nil {
			if prev, ok := b.first[o.name]; !ok {
				b.first[o.name] = o.digest
			} else if prev != o.digest {
				err = fmt.Errorf("digest %s differs from its first run's %s", o.digest, prev)
			}
		}
		if want := pinned[o.name]; err == nil && b.o.pinned != nil && want != o.digest {
			err = fmt.Errorf("digest %s, pinned %q", o.digest, want)
		}
		if err != nil {
			b.failed++
			fmt.Fprintf(b.log, "perfbench: %s %s: %v\n", b.o.workload, o.name, err)
		}
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// setUp builds the workload's inputs at least minSetupReps times and for
// at least minSetupTime, and returns each build's seconds. The last
// build feeds the next pass.
func (b *bench) setUp() ([]float64, error) {
	var secs []float64
	for start := time.Now(); len(secs) < minSetupReps || time.Since(start) < minSetupTime; {
		t0 := time.Now()
		if err := b.w.setup(nil, 0); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// pass runs the workload once untraced and returns its wall and CPU
// seconds.
func (b *bench) pass(ctx context.Context) (wall, cpu float64) {
	runtime.GC()
	c0, t0 := cpuSeconds(), time.Now()
	ops := b.w.pass(ctx, nil, 0)
	wall, cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
	b.check(ops)
	return wall, cpu
}

// measure runs a warm-up pass, then untraced (and, with o.trace,
// alternately traced) passes until o.seconds have elapsed, and returns
// the run's metrics. Set-up is timed before every untraced pass, so its
// median, like the passes', spans the whole run.
func measure(ctx context.Context, o options, log io.Writer) (*result, *bench, error) {
	w, err := newWorkload(o.workload, o.tiny)
	if err != nil {
		return nil, nil, err
	}
	b := &bench{o: o, w: w, log: log, first: map[string]string{}}
	if err := w.inputs(o.seed); err != nil {
		return nil, nil, err
	}
	if _, err := b.setUp(); err != nil {
		return nil, nil, err
	}
	wall, _ := b.pass(ctx) // warm-up: heap grown and pages touched before timing
	fmt.Fprintf(log, "warm-up: %.4f s\n", wall)

	// At least two passes; past that, stop where the pass count comes
	// closest to filling o.seconds.
	var setups, walls, cpus, tracedWalls []float64
	var last *tracedPass
	start := time.Now()
	for i := 0; i < 2 || time.Since(start)+time.Since(start)/time.Duration(2*i) < o.seconds; i++ {
		if o.trace && i%2 == 1 {
			tp, err := b.tracedPass(ctx)
			if err != nil {
				return nil, nil, err
			}
			last = tp
			tracedWalls = append(tracedWalls, tp.run)
			fmt.Fprintf(log, "pass %d traced: %.4f s\n", i, tp.run)
			continue
		}
		secs, err := b.setUp()
		if err != nil {
			return nil, nil, err
		}
		wall, cpu := b.pass(ctx)
		setups, walls, cpus = append(setups, secs...), append(walls, wall), append(cpus, cpu)
		fmt.Fprintf(log, "pass %d: %.4f s wall, %.4f s cpu, set-up %.6f s\n", i, wall, cpu, median(secs))
	}

	res := &result{Metrics: map[string]metric{}}
	correct := true
	if o.trace {
		var ok bool
		res.Metrics, ok = last.metrics(b, median(tracedWalls)/median(walls)-1)
		correct = ok && b.writeTrace(last)
	} else {
		res.Metrics["wall_s"] = metric{median(walls), "s"}
		res.Metrics["cpu_s"] = metric{median(cpus), "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	}
	res.Attempted, res.Failed = b.tried, b.failed
	res.Correct = correct && b.failed == 0 && b.tried > 0
	return res, b, nil
}

// writeTrace validates the traced pass's Chrome trace and reports
// whether it is valid. Writing it into o.traceDir for inspection is best
// effort.
func (b *bench) writeTrace(tp *tracedPass) bool {
	var buf bytes.Buffer
	if err := tp.tr.t.WriteJSON(&buf); err != nil {
		fmt.Fprintln(b.log, "perfbench: trace:", err)
		return false
	}
	if err := telemetry.ValidateTrace(buf.Bytes()); err != nil {
		fmt.Fprintln(b.log, "perfbench: trace:", err)
		return false
	}
	if b.o.traceDir != "" {
		path := filepath.Join(b.o.traceDir, "perfbench_trace_"+b.o.workload+".json")
		err := os.MkdirAll(b.o.traceDir, 0o755)
		if err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		if err != nil {
			fmt.Fprintln(b.log, "perfbench: trace:", err)
		}
	}
	return true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance records what produced the run's numbers. The revision is
// the one the Go toolchain stamped at build time ("unknown" outside a
// git checkout).
func provenance(o options, b *bench) map[string]any {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
	}
	rev += dirty
	return map[string]any{"workload": o.workload, "seed": o.seed, "revision": rev,
		"env": sweep.CaptureEnv(), "sizes": b.w.sizes(), "trace": o.trace}
}

// recordDigests stores the workload's first-run digests in the digest
// file at path, keeping the other workloads' entries.
func recordDigests(path, name string, digests map[string]string) error {
	t := digestTable{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &t); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	t[name] = digests
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
