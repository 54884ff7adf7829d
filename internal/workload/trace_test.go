package workload

import (
	"fmt"
	"strings"
	"testing"

	"sirius/internal/simtime"
)

func TestTraceRoundTrip(t *testing.T) {
	orig, err := Generate(DefaultConfig(16, 400*simtime.Gbps, 0.5, 200))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	buf.WriteString("arrival_ns,src,dst,bytes\n")
	for _, f := range orig {
		fmt.Fprintf(&buf, "%.3f,%d,%d,%d\n", simtime.Duration(f.Arrival).Nanoseconds(), f.Src, f.Dst, f.Bytes)
	}
	got, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(orig) {
		t.Fatalf("read %d flows, wrote %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].ID != i {
			t.Fatalf("flow %d re-IDed as %d", i, got[i].ID)
		}
		if got[i].Src != orig[i].Src || got[i].Dst != orig[i].Dst || got[i].Bytes != orig[i].Bytes {
			t.Fatalf("flow %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
		// Arrivals round-trip to sub-nanosecond precision.
		d := got[i].Arrival - orig[i].Arrival
		if d < 0 {
			d = -d
		}
		if d > simtime.Time(simtime.Nanosecond) {
			t.Fatalf("flow %d arrival off by %v", i, simtime.Duration(d))
		}
	}
}

func TestReadCSVHeaderOptional(t *testing.T) {
	noHeader := "100.0,0,1,5000\n50.0,2,3,900\n"
	flows, err := ReadCSV(strings.NewReader(noHeader))
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) != 2 {
		t.Fatalf("flows = %d", len(flows))
	}
	// Sorted by arrival: the 50ns flow first.
	if flows[0].Src != 2 || flows[0].ID != 0 {
		t.Errorf("sorting/re-ID broken: %+v", flows[0])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"arrival_ns,src,dst,bytes\nnope,0,1,100\n",
		"arrival_ns,src,dst,bytes\n10,0,0,100\n", // self flow
		"arrival_ns,src,dst,bytes\n10,0,1,0\n",   // zero bytes
		"arrival_ns,src,dst,bytes\n-5,0,1,100\n", // negative arrival
		"arrival_ns,src,dst,bytes\n10,0,1\n",     // short record
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c)); err == nil {
			t.Errorf("case %d: bad trace accepted", i)
		}
	}
}
