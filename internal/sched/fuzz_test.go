package sched

import (
	"testing"

	"sirius/internal/rng"
)

// FuzzPlanContentionFree drives RotorRR, PULSE and NegotiaToR over
// randomized demand matrices and epoch sequences, asserting the safety
// invariants that the core engine relies on: every plan is a
// contention-free matching (per (slot, uplink) plane, injective
// src→dst, in-range); PULSE never serves a pair beyond its sampled
// demand, and NegotiaToR never beyond the previous epoch's (the
// requests it sees one epoch late). Every plan must also equal the
// pre-rewrite reference planner's, entry for entry, starting from a
// junk-filled table.
func FuzzPlanContentionFree(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(2), uint8(4), uint8(1))
	f.Add(uint64(42), uint8(16), uint8(3), uint8(8), uint8(2))
	f.Add(uint64(7), uint8(5), uint8(1), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, upRaw, slotRaw, recfgRaw uint8) {
		n := 2 + int(nRaw)%31       // 2..32
		up := 1 + int(upRaw)%4      // 1..4
		slots := 1 + int(slotRaw)%8 // 1..8
		recfg := int(recfgRaw) % slots
		pairs := newPlanPairs(t, n, up, slots, recfg)
		rn := rng.New(seed)
		demand := make([]int32, n*n)
		prev := make([]int32, n*n) // last epoch's demand; nothing before epoch 0
		dst := make([]int32, slots*n*up)
		want := make([]int32, len(dst))
		for epoch := int64(0); epoch < 6; epoch++ {
			for i := range demand {
				demand[i] = 0
				if rn.Intn(4) == 0 {
					demand[i] = int32(rn.Intn(32))
				}
			}
			for i := 0; i < n; i++ {
				demand[i*n+i] = 0 // no self traffic
			}
			for _, pp := range pairs {
				comparePlans(t, pp, epoch, demand, dst, want, rn)
				if err := CheckMatching(n, up, slots, dst); err != nil {
					t.Fatalf("%s epoch %d (n=%d up=%d slots=%d recfg=%d): %v", pp.name, epoch, n, up, slots, recfg, err)
				}
				var bound []int32
				switch pp.name {
				case "pulse":
					bound = demand
				case "negotiator":
					bound = prev
				default:
					continue
				}
				for i, s := range servedPerPair(n, up, dst) {
					if s > bound[i] {
						t.Fatalf("%s epoch %d: pair (%d,%d) served %d > requested %d", pp.name, epoch, i/n, i%n, s, bound[i])
					}
				}
			}
			copy(prev, demand)
		}
	})
}
