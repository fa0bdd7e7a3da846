package placement

import (
	"sort"

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
//   - a segment reversal touches only the transitions crossing the
//     segment boundary (interior and exterior pairwise distances are
//     preserved), enumerated from whichever side of the boundary is
//     smaller.
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

	// Transition multiset in CSR form over the dense variable universe.
	// Row v holds v's transition partners; each undirected transition
	// pair appears in both endpoint rows.
	start []int32
	nbr   []int32
	wgt   []int64

	cost     int64
	accesses int // number of accesses to member variables
}

// NewDeltaEvaluator builds an evaluator for the accesses of s restricted
// to the variables of order (the DBC's content, in offset order). Setup is
// O(numVars + m + t·log t) for m accesses and t distinct transitions;
// every subsequent move evaluation is independent of m. When a CostKernel
// for the sequence is already at hand, NewDeltaEvaluatorFromKernel builds
// the identical evaluator without touching the access stream.
func NewDeltaEvaluator(s *trace.Sequence, order []int) *DeltaEvaluator {
	e := newDeltaShell(s.NumVars(), order)

	// Collect the transition multiset of the restricted subsequence:
	// consecutive accesses to distinct member variables, non-members
	// transparent (they live in other DBCs and cost nothing here).
	numVars := s.NumVars()
	var pairs []wpair
	prev := -1
	for _, a := range s.Accesses {
		v := a.Var
		if v < 0 || v >= numVars || e.pos[v] < 0 {
			continue
		}
		e.accesses++
		if prev >= 0 && prev != v {
			u, w := int32(prev), int32(v)
			if u > w {
				u, w = w, u
			}
			pairs = append(pairs, wpair{u: u, v: w, w: 1})
		}
		prev = v
	}
	e.initCSR(pairs)
	return e
}

// wpair is an undirected transition pair (u <= v) with a multiplicity.
type wpair struct {
	u, v int32
	w    int64
}

// newDeltaShell allocates the order/pos tables shared by the two
// evaluator constructors. The order may name variables beyond the
// accessed universe (members that are never touched); the dense tables
// cover both. Order entries must be non-negative and distinct, as in
// any placement.
func newDeltaShell(numVars int, order []int) *DeltaEvaluator {
	width := numVars
	for _, v := range order {
		if v+1 > width {
			width = v + 1
		}
	}
	e := &DeltaEvaluator{
		order: append([]int(nil), order...),
		pos:   make([]int, width),
	}
	for v := range e.pos {
		e.pos[v] = -1
	}
	for i, v := range e.order {
		e.pos[v] = i
	}
	return e
}

// initCSR aggregates weighted transition pairs into the CSR rows (each
// undirected transition contributes one entry per endpoint row) and
// computes the initial cost. Pairs may repeat; multiplicities sum.
func (e *DeltaEvaluator) initCSR(pairs []wpair) {
	width := len(e.pos)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].u != pairs[j].u {
			return pairs[i].u < pairs[j].u
		}
		return pairs[i].v < pairs[j].v
	})

	// Merge duplicate pairs in place, summing multiplicities, and size
	// the CSR rows.
	e.start = make([]int32, width+1)
	uniq := 0
	for i := 0; i < len(pairs); {
		p := pairs[i]
		var w int64
		j := i
		for j < len(pairs) && pairs[j].u == p.u && pairs[j].v == p.v {
			w += pairs[j].w
			j++
		}
		pairs[uniq] = wpair{u: p.u, v: p.v, w: w}
		e.start[p.u+1]++
		e.start[p.v+1]++
		uniq++
		i = j
	}
	pairs = pairs[:uniq]
	for v := 1; v <= width; v++ {
		e.start[v] += e.start[v-1]
	}
	e.nbr = make([]int32, e.start[width])
	e.wgt = make([]int64, e.start[width])
	fill := make([]int32, width)
	for _, p := range pairs {
		ku := e.start[p.u] + fill[p.u]
		e.nbr[ku], e.wgt[ku] = p.v, p.w
		fill[p.u]++
		kv := e.start[p.v] + fill[p.v]
		e.nbr[kv], e.wgt[kv] = p.u, p.w
		fill[p.v]++
	}

	e.cost = e.recompute()
}

// recompute sums the full objective from the CSR rows (each undirected
// transition visited twice, hence the halving). Used once at setup and by
// the parity tests; moves never call it.
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

// Cost returns the current intra-DBC shift cost of the order.
func (e *DeltaEvaluator) Cost() int64 { return e.cost }

// Accesses returns the number of accesses to member variables — the
// length of the restricted subsequence the cost is defined over.
func (e *DeltaEvaluator) Accesses() int { return e.accesses }

// Len returns the number of variables in the order.
func (e *DeltaEvaluator) Len() int { return len(e.order) }

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

// ReverseDelta returns the cost change of reversing the offset segment
// [i, j], without applying it. Distances between two interior or two
// exterior variables are preserved, so only transitions crossing the
// segment boundary contribute; they are enumerated from the smaller side.
//
//rtm:hotpath
func (e *DeltaEvaluator) ReverseDelta(i, j int) int64 {
	if i >= j {
		return 0
	}
	m := i + j // reversal maps interior offset p to m - p
	var d int64
	if j-i+1 <= len(e.order)-(j-i+1) {
		for p := i; p <= j; p++ {
			v := e.order[p]
			for k := e.start[v]; k < e.start[v+1]; k++ {
				pn := e.pos[e.nbr[k]]
				if pn >= i && pn <= j {
					continue // interior transition: distance preserved
				}
				d += e.wgt[k] * (absDist(m-p, pn) - absDist(p, pn))
			}
		}
		return d
	}
	//rtmlint:hotalloc-ok closure never escapes ReverseDelta, so it stays on the stack; BenchmarkTwoOptDelta pins 0 allocs/op
	cross := func(p int) {
		v := e.order[p]
		for k := e.start[v]; k < e.start[v+1]; k++ {
			pn := e.pos[e.nbr[k]]
			if pn < i || pn > j {
				continue // exterior transition: distance preserved
			}
			d += e.wgt[k] * (absDist(p, m-pn) - absDist(p, pn))
		}
	}
	for p := 0; p < i; p++ {
		cross(p)
	}
	for p := j + 1; p < len(e.order); p++ {
		cross(p)
	}
	return d
}

// Reverse applies the reversal of segment [i, j], updating the cost
// incrementally.
//
//rtm:hotpath
func (e *DeltaEvaluator) Reverse(i, j int) {
	e.cost += e.ReverseDelta(i, j)
	for l, r := i, j; l < r; l, r = l+1, r-1 {
		e.order[l], e.order[r] = e.order[r], e.order[l]
	}
	for p := i; p <= j; p++ {
		e.pos[e.order[p]] = p
	}
}

// ImprovePass runs one first-improvement sweep over all offset pairs
// (i, j), i < j, trying a swap first and, only if the swap does not
// improve, the 2-opt segment reversal — the exact move order and
// acceptance rule of the seed TwoOpt implementation, so search
// trajectories match it move-for-move (TestTwoOptMatchesReference).
// It reports whether any move was accepted.
//
//rtm:hotpath
func (e *DeltaEvaluator) ImprovePass() bool {
	improved := false
	n := len(e.order)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.SwapDelta(i, j) < 0 {
				e.Swap(i, j)
				improved = true
				continue
			}
			if e.ReverseDelta(i, j) < 0 {
				e.Reverse(i, j)
				improved = true
			}
		}
	}
	return improved
}
