package placement

import (
	"repro/internal/trace"
)

// DeltaEvaluator is an incremental intra-DBC cost evaluator for local
// search over offset orders.
//
// The intra-DBC shift cost of an order is the sum, over consecutive
// accesses (u, v) with u != v in the DBC-restricted subsequence, of
// |pos[u] - pos[v]|. Grouping equal transitions, that is exactly
//
//	cost(pos) = Σ_{u<v} w(u,v) · |pos[u] − pos[v]|
//
// where w(u,v) counts the transitions between u and v (in either
// direction — the cost is symmetric). The evaluator precomputes that
// transition multiset once, in compressed-sparse-row form, so the cost
// change of a local move never replays the access sequence:
//
//   - a swap of the variables at two offsets touches only the transitions
//     adjacent to the two swapped variables: O(freq(u) + freq(v));
//   - a segment reversal changes only the transitions crossing the
//     segment boundary (interior and exterior pairwise distances are
//     preserved), and ImprovePass prices every reversal of a row from
//     four running sums over those crossings (rowSums): O(1) per
//     candidate, O(freq) per step of the segment's right end.
//
// The seed implementation recomputed the full restricted cost, O(m) per
// candidate move; see DESIGN.md §7 for the delta derivation and the
// old-vs-new complexity table. All arithmetic is exact int64, so
// incremental costs are bit-identical to a full recompute (pinned by
// TestDeltaEvaluatorParityRandom and FuzzDeltaParity).
//
// After construction every method is allocation-free: position and order
// buffers are reused in place. The evaluator is not safe for concurrent
// use; search loops own one instance each.
type DeltaEvaluator struct {
	order []int // current offset order; order[i] lives at offset i
	pos   []int // pos[v] = offset of v, -1 for non-members; inverse of order

	// The transition multiset of the restricted subsequence (graph.go).
	accessGraph

	cost int64
}

// NewDeltaEvaluator builds an evaluator for the accesses of s restricted
// to the variables of order (the DBC's content, in offset order). Setup is
// O(numVars + m) for m accesses; every subsequent move evaluation is
// independent of m. When a CostKernel for the sequence is already at
// hand, NewDeltaEvaluatorFromKernel builds the identical evaluator
// without touching the access stream.
func NewDeltaEvaluator(s *trace.Sequence, order []int) *DeltaEvaluator {
	pos := memberIndex(s.NumVars(), order)
	return newDelta(graphFromStream(s, pos), order, pos)
}

// newDelta builds the evaluator of order over its access graph g. pos
// must be order's member index (memberIndex), the width g was built on;
// the evaluator takes it over as its position table.
func newDelta(g accessGraph, order, pos []int) *DeltaEvaluator {
	e := &DeltaEvaluator{order: append([]int(nil), order...), pos: pos, accessGraph: g}
	e.cost = e.recompute()
	return e
}

// recompute sums the full objective from the CSR rows (each undirected
// transition visited twice, hence the halving). Used once at setup; moves
// never call it.
func (e *DeltaEvaluator) recompute() int64 {
	var twice int64
	for _, v := range e.order {
		pv := e.pos[v]
		for k := e.start[v]; k < e.start[v+1]; k++ {
			twice += e.wgt[k] * absDist(pv, e.pos[e.nbr[k]])
		}
	}
	return twice / 2
}

// Accesses returns the number of accesses to member variables — the
// length of the restricted subsequence the cost is defined over.
func (e *DeltaEvaluator) Accesses() int { return e.accesses }

// CurrentOrder returns a copy of the current offset order.
func (e *DeltaEvaluator) CurrentOrder() []int {
	return append([]int(nil), e.order...)
}

// SwapDelta returns the cost change of exchanging the variables at
// offsets i and j, without applying it. O(freq(u) + freq(v)).
//
//rtm:hotpath
func (e *DeltaEvaluator) SwapDelta(i, j int) int64 {
	if i == j {
		return 0
	}
	u, v := e.order[i], e.order[j]
	var d int64
	for k := e.start[u]; k < e.start[u+1]; k++ {
		n := e.nbr[k]
		if int(n) == v {
			continue // the (u,v) distance is invariant under the swap
		}
		pn := e.pos[n]
		d += e.wgt[k] * (absDist(j, pn) - absDist(i, pn))
	}
	for k := e.start[v]; k < e.start[v+1]; k++ {
		n := e.nbr[k]
		if int(n) == u {
			continue
		}
		pn := e.pos[n]
		d += e.wgt[k] * (absDist(i, pn) - absDist(j, pn))
	}
	return d
}

// Swap applies the swap of offsets i and j, updating the cost
// incrementally.
//
//rtm:hotpath
func (e *DeltaEvaluator) Swap(i, j int) {
	e.cost += e.SwapDelta(i, j)
	u, v := e.order[i], e.order[j]
	e.order[i], e.order[j] = v, u
	e.pos[u], e.pos[v] = j, i
}

// reverse applies the reversal of the offset segment [i, j], whose cost
// change d the caller has priced.
//
//rtm:hotpath
func (e *DeltaEvaluator) reverse(i, j int, d int64) {
	e.cost += d
	for l, r := i, j; l < r; l, r = l+1, r-1 {
		e.order[l], e.order[r] = e.order[r], e.order[l]
	}
	for p := i; p <= j; p++ {
		e.pos[e.order[p]] = p
	}
}

// rowSums price every reversal [i, j] of one row (one fixed i) in O(1).
// Reversing [i, j] maps an interior offset p to i+j−p and preserves every
// distance except those of transitions crossing the segment boundary: one
// of weight w from p to a partner left of i grows by w·(i+j−2p), one to a
// partner right of j shrinks by as much. Summed over the crossings,
//
//	Δrev(i, j) = (i+j)·(a − b) − 2·ax + 2·bx
//
// where a and ax are the weight and weight·offset of the transitions from
// interior variables to partners left of i, and b and bx the same for
// partners right of j.
type rowSums struct{ a, ax, b, bx int64 }

// reverseDelta is the cost change of reversing [i, j], for the sums of
// segment [i, j] and m = i+j.
func (r *rowSums) reverseDelta(m int64) int64 {
	return m*(r.a-r.b) - 2*r.ax + 2*r.bx
}

// mirror maps the sums of [i, j] through the reversal of that segment,
// m = i+j: the crossing transitions stay the same, and each interior
// offset p becomes m−p.
func (r *rowSums) mirror(m int64) {
	r.ax = m*r.a - r.ax
	r.bx = m*r.b - r.bx
}

// extend grows the sums of segment [i, j−1] to those of [i, j] by walking
// the row of the variable at offset j, in O(freq). A partner inside the
// segment stops crossing its right boundary.
//
//rtm:hotpath
func (e *DeltaEvaluator) extend(r *rowSums, i, j int) {
	v, x := e.order[j], int64(j)
	for k := e.start[v]; k < e.start[v+1]; k++ {
		w, pn := e.wgt[k], e.pos[e.nbr[k]]
		switch {
		case pn < i:
			r.a += w
			r.ax += w * x
		case pn > j:
			r.b += w
			r.bx += w * x
		default:
			r.b -= w
			r.bx -= w * int64(pn)
		}
	}
}

// ImprovePass runs one first-improvement sweep over all offset pairs
// (i, j), i < j, trying a swap first and, only if the swap does not
// improve, the 2-opt segment reversal — the exact move order and
// acceptance rule of the seed TwoOpt implementation, so search
// trajectories match it move-for-move (TestTwoOptMatchesReference).
// Each row i carries the rowSums of [i, j] as j grows, so a candidate
// reversal costs O(1) and each step of j O(freq(order[j])). An accepted
// reversal mirrors the sums in O(1); an accepted swap rebuilds them over
// [i, j]. It reports whether any move was accepted.
//
//rtm:hotpath
func (e *DeltaEvaluator) ImprovePass() bool {
	improved := false
	n := len(e.order)
	for i := 0; i < n; i++ {
		var r rowSums
		e.extend(&r, i, i)
		for j := i + 1; j < n; j++ {
			e.extend(&r, i, j)
			if e.SwapDelta(i, j) < 0 {
				e.Swap(i, j)
				r = rowSums{}
				for p := i; p <= j; p++ {
					e.extend(&r, i, p)
				}
				improved = true
				continue
			}
			m := int64(i + j)
			if d := r.reverseDelta(m); d < 0 {
				e.reverse(i, j, d)
				r.mirror(m)
				improved = true
			}
		}
	}
	return improved
}
