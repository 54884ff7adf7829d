package sirius

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestBenchArtifacts pins the BENCH_*.json contract: every "after" row
// records the GOMAXPROCS its key names, and every case of every grid
// has a row at GOMAXPROCS 1 and 2, so a parallel claim on a 2-CPU host
// has rows to back it.
func TestBenchArtifacts(t *testing.T) {
	cases := map[string][]string{"sweep": {"serial", "parallel"}}
	for _, tc := range coreBenchCases {
		cases["core"] = append(cases["core"], tc.name)
	}
	for _, tc := range fluidBenchCases {
		cases["fluid"] = append(cases["fluid"], tc.name)
	}
	for _, tc := range wireBenchCases {
		cases["wire"] = append(cases["wire"], tc.name)
	}
	for _, tc := range schedBenchCases {
		for _, dm := range schedBenchDemands {
			cases["sched"] = append(cases["sched"], fmt.Sprintf("%s/n%d%s", tc.family, tc.n, dm.suffix))
		}
	}
	for layer, names := range cases {
		path := "BENCH_" + layer + ".json"
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			After map[string]struct {
				GOMAXPROCS *int `json:"gomaxprocs"`
			} `json:"after"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for key, row := range doc.After {
			if row.GOMAXPROCS == nil || !strings.HasSuffix(key, fmt.Sprintf("/gomaxprocs=%d", *row.GOMAXPROCS)) {
				t.Errorf("%s: row %q does not record the GOMAXPROCS its key names", path, key)
			}
		}
		for _, name := range names {
			for _, procs := range []int{1, 2} {
				if _, ok := doc.After[fmt.Sprintf("%s/gomaxprocs=%d", name, procs)]; !ok {
					t.Errorf("%s: no row for %s at gomaxprocs=%d", path, name, procs)
				}
			}
		}
	}
}
