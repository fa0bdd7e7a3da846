package placement

import (
	"cmp"
	"slices"

	"repro/internal/trace"
)

// accessGraph is the weighted access graph of one DBC: the transition
// multiset of the subsequence restricted to the DBC's members, in
// compressed-sparse-row form over the dense variable universe. Row v
// lists v's transition partners in order of first appearance, each with
// the number of transitions between the two in either direction. Each
// undirected pair appears in both endpoint rows; self transitions cost
// nothing and appear in none. Every reader sums over rows, so no result
// depends on the order within a row.
//
// graphFromStream builds it by replaying the access stream,
// graphFromKernel from a cost kernel's stencils. ShiftsReduce, Chen,
// IntraExact and the 2-opt polish (DeltaEvaluator embeds it) read it.
type accessGraph struct {
	start    []int32 // row v is nbr[start[v]:start[v+1]], and wgt alike
	nbr      []int32
	wgt      []int64
	accesses int // accesses to member variables
}

// memberIndex returns the dense table idx[v] = i for v = vars[i] and -1
// for every other variable. It covers the universe of numVars variables
// and every member, since a DBC may hold variables the sequence never
// accesses. Entries must be non-negative and distinct, as in any
// placement.
func memberIndex(numVars int, vars []int) []int {
	width := numVars
	for _, v := range vars {
		width = max(width, v+1)
	}
	idx := make([]int, width)
	for v := range idx {
		idx[v] = -1
	}
	for i, v := range vars {
		idx[v] = i
	}
	return idx
}

// graphFromStream builds the access graph of the members of idx
// (idx[v] >= 0) from the accesses of s: consecutive accesses to distinct
// members are transitions, and non-members are transparent because they
// live in other DBCs. O(len(idx) + m) for m accesses.
func graphFromStream(s *trace.Sequence, idx []int) accessGraph {
	b := graphBuilder{g: accessGraph{start: make([]int32, len(idx)+1)}}
	b.g.accesses = b.scan(s, idx)
	b.grow()
	b.scan(s, idx)
	return b.finish()
}

// graphFromKernel derives the same graph from the stencils of k, in
// O(nnz) of the members' stencils: a stencil (v, [u...], w) of a member
// v realizes w transitions (u*, v) for the first member candidate u*.
// No member candidate means v's predecessor in the restriction was v
// itself, a free self transition. vars lists the members of idx.
func graphFromKernel(k *CostKernel, vars, idx []int) accessGraph {
	b := graphBuilder{g: accessGraph{start: make([]int32, len(idx)+1)}}
	b.g.accesses = b.stencils(k, vars, idx)
	b.grow()
	b.stencils(k, vars, idx)
	return b.finish()
}

// graphBuilder assembles an accessGraph in two passes over the same
// transitions: the first sizes the rows, the second (after grow) files
// the entries, and finish merges repeated partners.
type graphBuilder struct {
	g    accessGraph
	fill []int32 // nil in the sizing pass
}

// scan feeds b the transitions of the members' restricted subsequence
// and returns the number of member accesses.
func (b *graphBuilder) scan(s *trace.Sequence, idx []int) int {
	n, prev := 0, int32(-1)
	for _, a := range s.Accesses {
		v := a.Var
		if uint(v) >= uint(len(idx)) || idx[v] < 0 {
			continue
		}
		n++
		if prev >= 0 && prev != int32(v) {
			b.pair(prev, int32(v), 1)
		}
		prev = int32(v)
	}
	return n
}

// stencils feeds b the transitions the members' kernel stencils realize
// and returns the number of member accesses.
func (b *graphBuilder) stencils(k *CostKernel, vars, idx []int) int {
	n := 0
	for _, v := range vars {
		if v >= k.numVars {
			continue // never accessed
		}
		for i := k.rowLo[v]; i < k.rowHi[v]; i++ {
			w := k.wgt[i]
			n += int(w)
			for _, u := range k.cand[k.start[i]:k.start[i+1]] {
				if idx[u] >= 0 {
					b.pair(u, int32(v), w)
					break
				}
			}
		}
	}
	return n
}

// pair takes w transitions between the distinct members u and v: the
// sizing pass counts one entry in each row, the filing pass writes them.
func (b *graphBuilder) pair(u, v int32, w int64) {
	g := &b.g
	if b.fill == nil {
		g.start[u+1]++
		g.start[v+1]++
		return
	}
	k := g.start[u] + b.fill[u]
	g.nbr[k], g.wgt[k] = v, w
	b.fill[u]++
	k = g.start[v] + b.fill[v]
	g.nbr[k], g.wgt[k] = u, w
	b.fill[v]++
}

// grow ends the sizing pass: it turns the row counts into row offsets
// and allocates the entries.
func (b *graphBuilder) grow() {
	start := b.g.start
	for v := 1; v < len(start); v++ {
		start[v] += start[v-1]
	}
	n := start[len(start)-1]
	b.g.nbr, b.g.wgt = make([]int32, n), make([]int64, n)
	b.fill = make([]int32, len(start)-1)
}

// finish merges the repeated partners of every row into one entry that
// sums their weights, compacting the rows in place. fill becomes the
// merge slot: fill[n] is the entry of partner n in the row being merged,
// or lies below that row's first entry when n has none there yet.
func (b *graphBuilder) finish() accessGraph {
	g, slot := b.g, b.fill
	for v := range slot {
		slot[v] = -1
	}
	var out, lo int32
	for v := range slot {
		hi, first := g.start[v+1], out
		g.start[v] = out
		for k := lo; k < hi; k++ {
			n := g.nbr[k]
			if s := slot[n]; s >= first {
				g.wgt[s] += g.wgt[k]
				continue
			}
			slot[n] = out
			g.nbr[out], g.wgt[out] = n, g.wgt[k]
			out++
		}
		lo = hi
	}
	g.start[len(slot)] = out
	g.nbr, g.wgt = g.nbr[:out], g.wgt[:out]
	return g
}

// degree is v's weighted degree, the sum of its row.
func (g *accessGraph) degree(v int) int64 {
	var d int64
	for _, w := range g.wgt[g.start[v]:g.start[v+1]] {
		d += w
	}
	return d
}

// graphEdge is one undirected access-graph edge, u < v.
type graphEdge struct {
	u, v int32
	w    int64
}

// edges lists every edge once, heaviest first, ties by ascending
// (u, v): the order in which Chen accepts them.
func (g *accessGraph) edges() []graphEdge {
	es := make([]graphEdge, 0, len(g.nbr)/2)
	for u := int32(0); int(u)+1 < len(g.start); u++ {
		for k := g.start[u]; k < g.start[u+1]; k++ {
			if v := g.nbr[k]; v > u {
				es = append(es, graphEdge{u: u, v: v, w: g.wgt[k]})
			}
		}
	}
	slices.SortFunc(es, func(x, y graphEdge) int {
		if c := cmp.Compare(y.w, x.w); c != 0 {
			return c
		}
		if c := cmp.Compare(x.u, y.u); c != 0 {
			return c
		}
		return cmp.Compare(x.v, y.v)
	})
	return es
}
