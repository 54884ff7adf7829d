package exp

import (
	"context"
	"os"
	"strconv"
	"strings"
	"testing"

	"sirius/internal/simtime"
	"sirius/internal/workload"
)

// render returns the table as Fprint writes it.
func render(tab *Table) string {
	var b strings.Builder
	tab.Fprint(&b)
	return b.String()
}

// cell parses a table cell as float.
func cellF(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(tab.Rows[row][col], "±"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not a number: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Header: []string{"a", "bb"}}
	tab.Add(1, 2.5)
	tab.Add("x", "y")
	s := render(tab)
	for _, want := range []string{"# T", "# n", "a", "bb", "2.5", "x"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestFig2aTable(t *testing.T) {
	tab := Fig2a()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if got := cellF(t, tab, 0, 2); got < 49 || got > 51 {
		t.Errorf("direct = %v W/Tbps, want 50", got)
	}
	if got := cellF(t, tab, 4, 2); got < 480 || got > 495 {
		t.Errorf("4-layer = %v W/Tbps, want ~487", got)
	}
}

func TestFig6aTable(t *testing.T) {
	tab := Fig6a()
	// Row for ratio 3 (index 1) in the 23-26% band.
	if got := cellF(t, tab, 1, 1); got < 0.22 || got > 0.27 {
		t.Errorf("ratio at 3x = %v", got)
	}
}

func TestFig6bTable(t *testing.T) {
	tab := Fig6b()
	// Grating at 25% (row 2): ~28% of non-blocking ESN.
	if got := cellF(t, tab, 2, 1); got < 0.25 || got > 0.31 {
		t.Errorf("cost ratio = %v, want ~0.28", got)
	}
}

func TestTuningTable(t *testing.T) {
	tab := Tuning()
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	body := render(tab)
	// The damped DSDBR row carries the 12,432-pair statistics.
	if !strings.Contains(body, "12432") {
		t.Error("missing 12,432-pair statistics")
	}
}

func TestFig8Tables(t *testing.T) {
	if rows := Fig8a().Rows; len(rows) != 6 {
		t.Errorf("fig8a rows = %d", len(rows))
	}
	b := Fig8b()
	if len(b.Rows) != 2 {
		t.Fatalf("fig8b rows = %d", len(b.Rows))
	}
	// Both adjacent and distant transitions are sub-nanosecond.
	for _, row := range b.Rows {
		if !strings.Contains(row[4], "ps") {
			t.Errorf("transition %v not sub-ns", row)
		}
	}
	c := Fig8c()
	if !strings.Contains(render(c), "3.84ns") {
		t.Error("fig8c missing the 3.84 ns guardband")
	}
	d := Fig8d()
	if len(d.Rows) != 9 {
		t.Errorf("fig8d rows = %d", len(d.Rows))
	}
	// BER decreases (log10 more negative) with power on every channel.
	for col := 1; col <= 4; col++ {
		for r := 1; r < len(d.Rows); r++ {
			if cellF(t, d, r, col) >= cellF(t, d, r-1, col) {
				t.Errorf("channel %d BER not decreasing at row %d", col, r)
			}
		}
	}
}

func TestTimesyncTable(t *testing.T) {
	tab := Timesync(20_000)
	for i := range tab.Rows {
		if got := cellF(t, tab, i, 2); got > 10 {
			t.Errorf("row %d: spread ±%v ps, want within ±10", i, got)
		}
	}
}

func TestLinkBudgetTable(t *testing.T) {
	s := render(LinkBudget())
	if !strings.Contains(s, "7.0 dBm") {
		t.Errorf("missing required laser power:\n%s", s)
	}
	if !strings.Contains(s, "8") {
		t.Error("missing 8-way laser sharing")
	}
}

func TestBurstTable(t *testing.T) {
	s := render(Burst())
	for _, want := range []string{"0.34", "0.978", "100ns", "3.84ns"} {
		if !strings.Contains(s, want) {
			t.Errorf("burst table missing %q:\n%s", want, s)
		}
	}
}

func TestPrototypeTable(t *testing.T) {
	tab, err := Prototype(4, 30)
	if err != nil {
		t.Fatal(err)
	}
	s := render(tab)
	if !strings.Contains(s, "error-free:") || !strings.Contains(s, "true") {
		t.Errorf("prototype not error-free:\n%s", s)
	}
}

func TestFig9Shapes(t *testing.T) {
	s := TinyScale()
	tab, err := Fig9(context.Background(), nil, s, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		sir := cellF(t, tab, i, 5)
		esn := cellF(t, tab, i, 7)
		osub := cellF(t, tab, i, 8)
		// Sirius goodput within a reasonable factor of ESN (Ideal), and
		// OSUB no better than ESN.
		if sir < esn*0.6 {
			t.Errorf("row %d: sirius goodput %v too far below esn %v", i, sir, esn)
		}
		if osub > esn*1.01 {
			t.Errorf("row %d: OSUB goodput %v above ESN %v", i, osub, esn)
		}
	}
	// Goodput grows with load for every system.
	for col := 5; col <= 8; col++ {
		if cellF(t, tab, 1, col) <= cellF(t, tab, 0, col) {
			t.Errorf("col %d: goodput not increasing with load", col)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	s := TinyScale()
	tab, err := Fig10(context.Background(), nil, s, []int{2, 16}, []float64{0.75})
	if err != nil {
		t.Fatal(err)
	}
	// Larger Q means more queueing and a larger reorder buffer.
	if cellF(t, tab, 1, 4) <= cellF(t, tab, 0, 4) {
		t.Error("peak queue did not grow with Q")
	}
	if cellF(t, tab, 1, 5) <= cellF(t, tab, 0, 5) {
		t.Error("reorder buffer did not grow with Q")
	}
}

func TestFig11Shapes(t *testing.T) {
	s := TinyScale()
	tab, err := Fig11(context.Background(), nil, s, []float64{5, 40})
	if err != nil {
		t.Fatal(err)
	}
	// FCT at 40 ns guardband clearly worse than at 5 ns.
	if cellF(t, tab, 1, 3) <= cellF(t, tab, 0, 3) {
		t.Error("FCT did not grow with guardband")
	}
}

func TestFig12Shapes(t *testing.T) {
	s := TinyScale()
	tab, err := Fig12(context.Background(), nil, s, []float64{1, 2}, []float64{0.9})
	if err != nil {
		t.Fatal(err)
	}
	// 2x uplinks beat 1x at high load.
	if cellF(t, tab, 0, 3) <= cellF(t, tab, 0, 2) {
		t.Error("2x goodput not above 1x")
	}
}

func TestFig13Shapes(t *testing.T) {
	s := TinyScale()
	tab, err := Fig13(context.Background(), nil, s, []float64{512, 65536}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	// The FCT penalty of fixed cells shrinks as flows grow.
	if cellF(t, tab, 1, 3) >= cellF(t, tab, 0, 3) {
		t.Error("FCT ratio did not shrink with flow size")
	}
}

func TestFailureExperiment(t *testing.T) {
	s := TinyScale()
	tab, err := Failure(context.Background(), nil, s, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	healthy := cellF(t, tab, 0, 2)
	degraded := cellF(t, tab, 1, 2)
	compacted := cellF(t, tab, 1, 3)
	if degraded >= healthy {
		t.Errorf("degraded goodput %v not below healthy %v", degraded, healthy)
	}
	if compacted <= degraded {
		t.Errorf("compacted goodput %v did not improve on degraded %v", compacted, degraded)
	}
	// Detection completes within a handful of epochs.
	if d := cellF(t, tab, 1, 4); d < 1 || d > 10 {
		t.Errorf("detection epochs = %v", d)
	}
}

func TestTableCSVAndJSON(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Header: []string{"a", "b"}}
	tab.Add(1, "x,y") // comma needing quoting
	var csvOut strings.Builder
	if err := tab.CSV(&csvOut); err != nil {
		t.Fatal(err)
	}
	s := csvOut.String()
	for _, want := range []string{"# T", "a,b", `"x,y"`} {
		if !strings.Contains(s, want) {
			t.Errorf("CSV missing %q:\n%s", want, s)
		}
	}
	var jsonOut strings.Builder
	if err := tab.JSON(&jsonOut); err != nil {
		t.Fatal(err)
	}
	j := jsonOut.String()
	for _, want := range []string{`"title": "T"`, `"x,y"`, `"header"`} {
		if !strings.Contains(j, want) {
			t.Errorf("JSON missing %q:\n%s", want, j)
		}
	}
}

func TestServerLevelExperiment(t *testing.T) {
	s := TinyScale()
	tab, err := ServerLevel(context.Background(), nil, s, 4, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if intra := cellF(t, tab, 0, 2); intra == 0 {
		t.Error("no intra-rack traffic at server granularity")
	}
	if g := cellF(t, tab, 0, 4); g <= 0 || g > 1.2 {
		t.Errorf("server goodput = %v", g)
	}
}

func TestFromTrace(t *testing.T) {
	flows := []workload.Flow{
		{Src: 0, Dst: 5, Bytes: 50_000},
		{Src: 3, Dst: 9, Bytes: 2_000, Arrival: simtime.Time(100 * simtime.Nanosecond)},
		{Src: 7, Dst: 2, Bytes: 120_000, Arrival: simtime.Time(50 * simtime.Nanosecond)},
	}
	tab, err := FromTrace(context.Background(), flows, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 systems", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[1] != "3" {
			t.Errorf("system %s completed %s of 3", row[0], row[1])
		}
	}
	if _, err := FromTrace(context.Background(), nil, 4, 1); err == nil {
		t.Error("empty trace accepted")
	}
}

func TestAblationTable(t *testing.T) {
	tab, err := Ablation(context.Background(), nil, TinyScale(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 variants", len(tab.Rows))
	}
	baseline := cellF(t, tab, 0, 1)
	noDirect := cellF(t, tab, 0, 3)
	if noDirect <= 0 {
		t.Error("baseline should use the direct path sometimes")
	}
	if got := cellF(t, tab, 1, 3); got != 0 {
		t.Errorf("no-direct variant direct fraction = %v", got)
	}
	// Direct-only mode is dramatically worse on goodput.
	directOnly := cellF(t, tab, 4, 1)
	if directOnly >= baseline*0.8 {
		t.Errorf("direct-only goodput %v should be far below baseline %v", directOnly, baseline)
	}
	if got := cellF(t, tab, 4, 3); got != 1 {
		t.Errorf("direct-only direct fraction = %v, want 1", got)
	}
}

func TestLaserDesignsTable(t *testing.T) {
	tab := LaserDesigns()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	s := render(tab)
	// The monolithic design is the only one that cannot meet ~1ns tuning.
	if !strings.Contains(s, "92.096ns") {
		t.Errorf("missing damped DSDBR worst case:\n%s", s)
	}
	if !strings.Contains(s, "912ps") {
		t.Errorf("missing SOA-bank worst case:\n%s", s)
	}
}

func TestFromTraceFile(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "trace-*.csv")
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("arrival_ns,src,dst,bytes\n0,0,3,5000\n100,2,7,900\n")
	f.Close()
	tab, err := FromTraceFile(context.Background(), f.Name(), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if _, err := FromTraceFile(context.Background(), "/nonexistent.csv", 4, 1); err == nil {
		t.Error("missing file accepted")
	}
}

func TestScalePresets(t *testing.T) {
	if s := SmallScale(); s.Racks != 64 || s.GratingPorts != 8 {
		t.Errorf("small scale = %+v", s)
	}
	if s := PaperScale(); s.Racks != 128 || s.GratingPorts != 16 || s.Flows != 200_000 {
		t.Errorf("paper scale = %+v", s)
	}
}

// TestLifecycleTable runs the fleet-lifecycle soak at a fixed seed. The
// experiment itself enforces the hard invariants (byte-identical
// replay, /healthz green outside the crash incident); the test checks
// the reported milestones land where the plan anchors them.
func TestLifecycleTable(t *testing.T) {
	tab, err := Lifecycle(7)
	if err != nil {
		t.Fatal(err)
	}
	get := func(metric string) string {
		t.Helper()
		for _, r := range tab.Rows {
			if r[0] == metric {
				return r[1]
			}
		}
		t.Fatalf("no row %q in:\n%s", metric, render(tab))
		return ""
	}
	for metric, want := range map[string]string{
		"fabric grew 4->6 at epoch":      "12",
		"node 1 drained at epoch":        "26",
		"node 1 re-added at epoch":       "40",
		"node 0 crashed at epoch":        "50",
		"healthz excursions (want 1)":    "1",
		"frames dropped by the emulator": "0",
		"healthz green at end":           "true",
		"post-FEC error-free":            "true",
	} {
		if got := get(metric); got != want {
			t.Errorf("%s = %s, want %s", metric, got, want)
		}
	}
}
