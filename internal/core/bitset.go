package core

import "math/bits"

// bitset is a dense index over node or destination ids. The hot loops use
// it as their active set: iteration cost scales with the number of set
// bits (plus one word-scan per 64 ids), not with the topology size.
//
// Iteration via next re-reads the underlying word on every call, so a bit
// set or cleared *behind* the cursor during iteration is skipped and one
// *ahead* of it is picked up — exactly the semantics of the ascending
// index scans with per-element occupancy checks that these sets replace.
// That equivalence is what keeps the optimized simulator byte-identical
// to the reference implementation (see the golden determinism tests).
type bitset []uint64

const wordBits = 64

// bitsetWords returns the number of words needed for n bits.
func bitsetWords(n int) int { return (n + wordBits - 1) / wordBits }

func newBitset(n int) bitset { return make(bitset, bitsetWords(n)) }

func (b bitset) set(i int)   { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// next returns the smallest set bit >= i, or -1 when there is none.
func (b bitset) next(i int) int {
	if i < 0 {
		i = 0
	}
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	if m := b[w] & (^uint64(0) << (uint(i) & 63)); m != 0 {
		return w<<6 + bits.TrailingZeros64(m)
	}
	for w++; w < len(b); w++ {
		if b[w] != 0 {
			return w<<6 + bits.TrailingZeros64(b[w])
		}
	}
	return -1
}

// nextIn returns the smallest set bit in [i, hi), or -1 when there is
// none. Unlike next it stops at hi, so walking one row of a flat n×n
// bitset (replan's txActive rows) never scans the later rows.
func (b bitset) nextIn(i, hi int) int {
	if i < 0 {
		i = 0
	}
	for i < hi {
		w := i >> 6
		m := b[w] & (^uint64(0) << (uint(i) & 63))
		if m != 0 {
			j := w<<6 + bits.TrailingZeros64(m)
			if j >= hi {
				return -1
			}
			return j
		}
		i = (w + 1) << 6
	}
	return -1
}
