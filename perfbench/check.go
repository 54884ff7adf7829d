package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"sirius/internal/core"
	"sirius/internal/fluid"
	"sirius/internal/metrics"
	"sirius/internal/wire"
)

// recordedSeed is the workload seed whose simulated results are pinned
// in digests.json.
const recordedSeed = 1

// digestFile pins every operation's result digest at recordedSeed, per
// workload. Rewrite it with -record after a change that is meant to
// alter simulated results.
//
//go:embed digests.json
var digestFile []byte

// digestTable maps workload -> operation -> digest.
type digestTable map[string]map[string]string

func loadDigests() (digestTable, error) {
	var t digestTable
	if err := json.Unmarshal(digestFile, &t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// checkSim asserts the invariants every simulated run must hold: every
// flow completed and every offered byte was delivered.
func checkSim(flows, completed int, delivered, offered int64) error {
	if completed != flows {
		return fmt.Errorf("completed %d of %d flows", completed, flows)
	}
	if delivered != offered {
		return fmt.Errorf("delivered %d of %d offered bytes", delivered, offered)
	}
	return nil
}

// checkWire asserts a clean fabric lost, misrouted and corrupted nothing.
func checkWire(fs *wire.FaultStats) error {
	if fs.Dropped != 0 || fs.GreyDropped != 0 {
		return fmt.Errorf("emulator dropped %d frames (%d grey)", fs.Dropped, fs.GreyDropped)
	}
	for _, n := range fs.Nodes {
		switch {
		case n.Sent != n.Received:
			return fmt.Errorf("node %d sent %d cells but received %d", n.Node, n.Sent, n.Received)
		case n.Misrouted != 0:
			return fmt.Errorf("node %d saw %d misrouted cells", n.Node, n.Misrouted)
		case n.BitErrors != 0:
			return fmt.Errorf("node %d saw %d bit errors", n.Node, n.BitErrors)
		}
	}
	return nil
}

// digest hashes a result's fields in order; floats keep every digit.
func digest(fields ...any) string {
	var b strings.Builder
	for _, f := range fields {
		switch v := f.(type) {
		case float64:
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		default:
			fmt.Fprint(&b, v)
		}
		b.WriteByte('|')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

func p99(s metrics.Sample) float64 {
	if s.Count() == 0 {
		return 0
	}
	return s.Percentile(99)
}

func coreDigest(r *core.Results) string {
	return digest(r.Slots, int64(r.SimTime), r.DeliveredBytes, r.GoodputNorm, r.MakespanGoodput,
		p99(r.FCTShort), r.DirectFraction, r.ReconfigLinkSlots)
}

func fluidDigest(r *fluid.Results) string {
	return digest(int64(r.SimTime), r.DeliveredBytes, r.GoodputNorm, r.MakespanGoodput, p99(r.FCTShort))
}

func wireDigest(fs *wire.FaultStats) string {
	fields := []any{fs.Routed, fs.Cells}
	for _, n := range fs.Nodes {
		fields = append(fields, n.Sent, n.Received, n.Bits)
	}
	return digest(fields...)
}
