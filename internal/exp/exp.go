// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation, each returning a printable table with
// the same rows/series the paper reports. cmd/siriussim exposes them on
// the command line and the repository's benchmarks regenerate them.
package exp

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// row formats cells the way Add does; sweep points use it to build rows
// off the table so parallel workers never share the table itself.
func row(cells ...interface{}) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.4g", v)
		default:
			out[i] = fmt.Sprintf("%v", c)
		}
	}
	return out
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	t.Rows = append(t.Rows, row(cells...))
}

// Fprint renders the table.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "# %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as CSV (header row first; title and note as
// leading comment lines).
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
		return err
	}
	if t.Note != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Note); err != nil {
			return err
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// JSON writes the table as a JSON object with title, note, header and
// rows.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title  string     `json:"title"`
		Note   string     `json:"note,omitempty"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}{t.Title, t.Note, t.Header, t.Rows})
}

// Scale selects the size of the network-simulation experiments.
type Scale struct {
	Racks        int
	GratingPorts int
	Flows        int
	Seed         uint64
}

// SmallScale fits in seconds on a laptop while preserving the paper's
// ratios (8 base uplinks per rack, 100 KB mean flows).
func SmallScale() Scale {
	return Scale{Racks: 64, GratingPorts: 8, Flows: 4000, Seed: 1}
}

// TinyScale is for tests.
func TinyScale() Scale {
	return Scale{Racks: 16, GratingPorts: 4, Flows: 400, Seed: 1}
}

// PaperScale is the §7 setup: 128 racks, 16-port gratings (8 base
// uplinks), ~200k flows.
func PaperScale() Scale {
	return Scale{Racks: 128, GratingPorts: 16, Flows: 200_000, Seed: 1}
}

// XLScale stresses the simulator at 4096 racks with 64-port gratings —
// the full flat-fabric scale the paper's §2 sizing argument targets. A
// single fig9 point takes ~15 s on a 2-vCPU Xeon host, so n=4096 is
// CI-feasible (DESIGN.md §6.6).
func XLScale() Scale {
	return Scale{Racks: 4096, GratingPorts: 64, Flows: 8000, Seed: 1}
}
