package fluid

// fan is the tournament tree's fan-out. A repair recomputes one group of
// up to fan entries per level, and the tree has ⌈log₁₆ C⌉ levels, so one
// shape serves every fabric size: 16 constraints take one level, fig9's
// 144 take two, 1,024 take three and the 8,192 of an n = 4096 fabric four.
const fan = 16

// tree is a 16-way tournament tree over the constraints, keyed by
// (share, index). Level 0 is the constraints themselves; entry g of level
// L+1 is the winner of level L's group [16g, 16g+16): the lowest-index
// constraint among those with the smallest share, found by an ascending
// strict-< scan. Every group covers a contiguous, ascending index range,
// so the root is exactly the constraint that the reference ascending
// strict-< scan over every share selects.
//
// The tree holds only the layout and the repair stamps. The winners live
// in a caller-owned slice, levels 1..depth concatenated with the root
// last, so the engine keeps one copy that follows the live shares across
// events and restores a scratch copy for each solve with one memcopy.
type tree struct {
	n     int     // constraints
	lvl   []int   // lvl[L] is the offset of level L+1 in a winner slice; the last entry is its length
	mark  []int64 // per winner entry: the repair that last recomputed it
	stamp int64   // repairs so far
}

func newTree(n int) tree {
	t := tree{n: n, lvl: []int{0}}
	for size := n; size > 1; {
		size = (size + fan - 1) / fan
		t.lvl = append(t.lvl, t.lvl[len(t.lvl)-1]+size)
	}
	t.mark = make([]int64, t.size())
	return t
}

// size is the length of a winner slice.
func (t *tree) size() int { return t.lvl[len(t.lvl)-1] }

// depth is the number of levels above the constraints.
func (t *tree) depth() int { return len(t.lvl) - 1 }

// build computes every winner in kt from shares.
func (t *tree) build(kt []int32, shares []float64) {
	for lv := 0; lv < t.depth(); lv++ {
		for g := 0; g < t.lvl[lv+1]-t.lvl[lv]; g++ {
			kt[t.lvl[lv]+g] = t.winner(kt, shares, lv, g)
		}
	}
}

// repair restores kt after the shares of the constraints in dirty
// changed. It recomputes, level by level up to the root, only the groups
// that hold a dirty constraint or a recomputed winner. A group is
// recomputed from scratch, so a share may have moved either way. dirty
// must hold distinct constraints; repair overwrites it.
func (t *tree) repair(kt []int32, shares []float64, dirty []int32) {
	t.stamp++
	for lv := 0; lv < t.depth(); lv++ {
		n := 0
		for _, i := range dirty {
			g := i / fan
			if e := t.lvl[lv] + int(g); t.mark[e] != t.stamp {
				t.mark[e] = t.stamp
				kt[e] = t.winner(kt, shares, lv, int(g))
				dirty[n] = g
				n++
			}
		}
		dirty = dirty[:n]
	}
}

// winner scans group g of level lv in ascending order with a strict <
// and returns its lowest-index constraint among the smallest shares.
func (t *tree) winner(kt []int32, shares []float64, lv, g int) int32 {
	lo := g * fan
	if lv == 0 {
		grp := shares[lo:min(lo+fan, t.n)]
		b, bs := 0, grp[0]
		for c := 1; c < len(grp); c++ {
			if s := grp[c]; s < bs {
				b, bs = c, s
			}
		}
		return int32(lo + b)
	}
	kids := kt[t.lvl[lv-1]:t.lvl[lv]]
	kids = kids[lo:min(lo+fan, len(kids))]
	b, bs := kids[0], shares[kids[0]]
	for _, c := range kids[1:] {
		if s := shares[c]; s < bs {
			b, bs = c, s
		}
	}
	return b
}
