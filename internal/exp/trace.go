package exp

import (
	"context"
	"fmt"
	"os"
	"sort"

	"sirius/internal/core"
	"sirius/internal/workload"
)

// FromTrace runs the four §7 systems on a user-supplied flow trace
// (workload.ReadCSV format): replaying production traces through the
// simulators is the intended path for adopting users. ctx cancels the
// underlying simulations.
func FromTrace(ctx context.Context, flows []workload.Flow, gratingPorts int, seed uint64) (*Table, error) {
	if len(flows) == 0 {
		return nil, fmt.Errorf("exp: empty trace")
	}
	maxNode := 0
	for _, f := range flows {
		if f.Src > maxNode {
			maxNode = f.Src
		}
		if f.Dst > maxNode {
			maxNode = f.Dst
		}
	}
	if gratingPorts < 1 {
		gratingPorts = 8
	}
	// Round the fabric up to a whole number of grating groups; surplus
	// nodes simply stay idle (and serve as intermediates).
	nodes := ((maxNode + gratingPorts) / gratingPorts) * gratingPorts
	if nodes < 2*gratingPorts {
		nodes = 2 * gratingPorts
	}
	s := Scale{Racks: nodes, GratingPorts: gratingPorts, Flows: len(flows), Seed: seed}

	ordered := make([]workload.Flow, len(flows))
	copy(ordered, flows)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	for i := range ordered {
		ordered[i].ID = i
	}

	t := &Table{
		Title: fmt.Sprintf("custom trace: %d flows across %d nodes", len(ordered), nodes),
		Note:  "same metrics as Fig 9, on your trace; goodput over the makespan (robust for short traces)",
		Header: []string{"system", "completed", "goodput",
			"short_p99_fct_ms", "all_p99_fct_ms"},
	}
	cfg := siriusDefaults()
	sir, err := s.runSirius(ctx, ordered, cfg, defaultUplinks)
	if err != nil {
		return nil, err
	}
	addCoreRow(t, "SIRIUS", sir)
	cfg.Mode = core.ModeIdeal
	ideal, err := s.runSirius(ctx, ordered, cfg, defaultUplinks)
	if err != nil {
		return nil, err
	}
	addCoreRow(t, "SIRIUS (IDEAL)", ideal)
	esn, err := s.runESN(ctx, ordered, 1)
	if err != nil {
		return nil, err
	}
	t.Add("ESN (Ideal)", esn.Completed, esn.MakespanGoodput,
		fmtMS(esn.FCTShort.Percentile(99)), fmtMS(esn.FCTAll.Percentile(99)))
	osub, err := s.runESN(ctx, ordered, 3)
	if err != nil {
		return nil, err
	}
	t.Add("ESN-OSUB (Ideal)", osub.Completed, osub.MakespanGoodput,
		fmtMS(osub.FCTShort.Percentile(99)), fmtMS(osub.FCTAll.Percentile(99)))
	return t, nil
}

func addCoreRow(t *Table, name string, r *core.Results) {
	t.Add(name, r.Completed, r.MakespanGoodput,
		fmtMS(r.FCTShort.Percentile(99)), fmtMS(r.FCTAll.Percentile(99)))
}

// FromTraceFile loads a CSV trace and runs FromTrace.
func FromTraceFile(ctx context.Context, path string, gratingPorts int, seed uint64) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	flows, err := workload.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	return FromTrace(ctx, flows, gratingPorts, seed)
}
