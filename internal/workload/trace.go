package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"sirius/internal/simtime"
)

// ReadCSV parses a CSV flow trace with the optional header
// "arrival_ns,src,dst,bytes", so users can replay their own traces
// through any of the simulators. Flows are sorted by arrival and re-IDed
// by position, as the simulators require.
func ReadCSV(r io.Reader) ([]Flow, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	recs, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	start := 0
	if recs[0][0] == "arrival_ns" {
		start = 1
	}
	flows := make([]Flow, 0, len(recs)-start)
	for i, rec := range recs[start:] {
		arr, err1 := strconv.ParseFloat(rec[0], 64)
		src, err2 := strconv.Atoi(rec[1])
		dst, err3 := strconv.Atoi(rec[2])
		bytes, err4 := strconv.Atoi(rec[3])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return nil, fmt.Errorf("workload: trace line %d: malformed record %v", i+start+1, rec)
		}
		if arr < 0 || src < 0 || dst < 0 || src == dst || bytes < 1 {
			return nil, fmt.Errorf("workload: trace line %d: invalid flow %v", i+start+1, rec)
		}
		flows = append(flows, Flow{
			Src:     src,
			Dst:     dst,
			Bytes:   bytes,
			Arrival: simtime.Time(arr * float64(simtime.Nanosecond)),
		})
	}
	sort.SliceStable(flows, func(i, j int) bool { return flows[i].Arrival < flows[j].Arrival })
	for i := range flows {
		flows[i].ID = i
	}
	return flows, nil
}
