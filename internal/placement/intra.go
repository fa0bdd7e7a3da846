package placement

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/trace"
)

// An IntraHeuristic reorders the variables of one DBC to reduce intra-DBC
// shift cost. It receives the DBC's variable set (in inter-DBC assignment
// order), the full access sequence and its analysis, and returns the new
// offset order. Implementations must return a permutation of vars.
type IntraHeuristic func(vars []int, s *trace.Sequence, a *trace.Analysis) []int

// OFU orders variables by their first use in the sequence — the paper's
// baseline intra-DBC placement ("order of first use").
func OFU(vars []int, _ *trace.Sequence, a *trace.Analysis) []int {
	out := append([]int(nil), vars...)
	sort.SliceStable(out, func(i, j int) bool {
		fi, fj := a.First[out[i]], a.First[out[j]]
		if fi == 0 {
			fi = 1 << 30 // never accessed: last
		}
		if fj == 0 {
			fj = 1 << 30
		}
		return fi < fj
	})
	return out
}

// Chen implements the single-DBC placement heuristic of Chen et al.
// (TVLSI 2016), which descends from the classic single-offset-assignment
// greedy of Liao: consider access-graph edges in descending weight and
// accept an edge when both endpoints still have spare degree (< 2) and no
// cycle forms, producing a set of paths; concatenate the paths (heaviest
// first) and append isolated variables by descending frequency. Heavily
// communicating variables thus end up at adjacent offsets.
//
// The access graph is built from the DBC-restricted subsequence: after the
// inter-DBC split, each DBC only observes its own accesses, so edge
// weights must count pairs consecutive within the restriction.
func Chen(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
	if len(vars) <= 2 {
		return OFU(vars, s, a)
	}
	idx := memberIndex(s.NumVars(), vars)
	g := graphFromStream(s, idx)

	// Greedy path cover, per member (by idx): its accepted edges, at most
	// two, with their partners and weights in acceptance order, and a
	// union-find parent.
	type node struct {
		deg     int
		nbr     [2]int
		w       [2]int64
		parent  int
		visited bool
	}
	ns := make([]node, len(vars))
	for i := range ns {
		ns[i].parent = i
	}
	find := func(x int) int {
		for ns[x].parent != x {
			ns[x].parent = ns[ns[x].parent].parent
			x = ns[x].parent
		}
		return x
	}
	for _, e := range g.edges() {
		iu, iv := idx[e.u], idx[e.v]
		nu, nv := &ns[iu], &ns[iv]
		if nu.deg >= 2 || nv.deg >= 2 {
			continue
		}
		ru, rv := find(iu), find(iv)
		if ru == rv {
			continue // would close a cycle
		}
		ns[ru].parent = rv
		nu.nbr[nu.deg], nu.w[nu.deg] = int(e.v), e.w
		nu.deg++
		nv.nbr[nv.deg], nv.w[nv.deg] = int(e.u), e.w
		nv.deg++
	}

	// Walk each path from an endpoint (one accepted edge). Paths are
	// emitted heaviest-first so hot clusters occupy contiguous low
	// offsets; deterministic order via sorted endpoints.
	var endpoints []int
	for i, v := range vars {
		if ns[i].deg == 1 {
			endpoints = append(endpoints, v)
		}
	}
	slices.Sort(endpoints)
	type path struct {
		lo, hi int // walk[lo:hi]
		weight int64
	}
	var paths []path
	walk := make([]int, 0, len(vars))
	for _, start := range endpoints {
		if ns[idx[start]].visited {
			continue
		}
		p := path{lo: len(walk)}
		cur, prev := start, -1
		for {
			n := &ns[idx[cur]]
			n.visited = true
			walk = append(walk, cur)
			next := -1
			for t := 0; t < n.deg; t++ {
				if u := n.nbr[t]; u != prev && !ns[idx[u]].visited {
					next = u
					p.weight += n.w[t]
					break
				}
			}
			if next < 0 {
				break
			}
			prev, cur = cur, next
		}
		p.hi = len(walk)
		paths = append(paths, p)
	}
	slices.SortStableFunc(paths, func(x, y path) int { return cmp.Compare(y.weight, x.weight) })

	out := make([]int, 0, len(vars))
	for _, p := range paths {
		out = append(out, walk[p.lo:p.hi]...)
	}
	// Isolated variables (no accepted edges): descending frequency.
	pathsEnd := len(out)
	for i, v := range vars {
		if !ns[i].visited {
			out = append(out, v)
		}
	}
	sortByFreqDesc(a, out[pathsEnd:])
	return out
}

// ShiftsReduce implements the intra-DBC heuristic of Khan et al.
// ("ShiftsReduce: Minimizing Shifts in Racetrack Memory 4.0"): the most
// connected variable seeds the layout, and remaining variables are added
// one at a time — always the unplaced variable with the largest total edge
// weight to the placed set — to whichever end of the current arrangement
// minimizes its distance-weighted communication with the already placed
// variables. Hot variables therefore gravitate toward the centre of the
// DBC, reducing the average travel.
func ShiftsReduce(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
	if len(vars) <= 2 {
		return OFU(vars, s, a)
	}
	idx := memberIndex(s.NumVars(), vars)
	g := graphFromStream(s, idx)
	return shiftsReduce(vars, idx, &g, a)
}

// shiftsReduce is ShiftsReduce over the access graph g of vars, whose
// member index (memberIndex) is idx. Each member keeps its attachment,
// the weight of its edges to the placed set, which grows by a row as a
// variable is placed, so a pick costs O(k) and a placement O(freq).
func shiftsReduce(vars, idx []int, g *accessGraph, a *trace.Analysis) []int {
	// Seed: maximum weighted degree; ties by frequency then index for
	// determinism.
	best, bestDeg := -1, int64(0)
	for _, v := range vars {
		d := g.degree(v)
		if best == -1 || d > bestDeg || (d == bestDeg && (a.Freq[v] > a.Freq[best] ||
			(a.Freq[v] == a.Freq[best] && v < best))) {
			best, bestDeg = v, d
		}
	}

	// Per member (by idx): its logical position once placed (the left
	// end may go negative) and its attachment while unplaced.
	type slot struct {
		at     int
		attach int64
		placed bool
	}
	sl := make([]slot, len(vars))
	left, right := 0, 0
	place := func(v, at int) {
		sl[idx[v]].at, sl[idx[v]].placed = at, true
		for k := g.start[v]; k < g.start[v+1]; k++ {
			sl[idx[g.nbr[k]]].attach += g.wgt[k]
		}
	}
	place(best, 0)

	for n := 1; n < len(vars); n++ {
		// Pick the unplaced variable with max attachment weight.
		pick, pickW := -1, int64(0)
		for i, v := range vars {
			if sl[i].placed {
				continue
			}
			w := sl[i].attach
			if pick == -1 || w > pickW || (w == pickW && (a.Freq[v] > a.Freq[pick] ||
				(a.Freq[v] == a.Freq[pick] && v < pick))) {
				pick, pickW = v, w
			}
		}
		// Cost of placing at the left vs right end: distance-weighted
		// attachment to the placed set.
		var lc, rc int64
		for k := g.start[pick]; k < g.start[pick+1]; k++ {
			if u := sl[idx[g.nbr[k]]]; u.placed {
				lc += g.wgt[k] * absDist(u.at, left-1)
				rc += g.wgt[k] * absDist(u.at, right+1)
			}
		}
		if lc < rc {
			left--
			place(pick, left)
		} else {
			right++
			place(pick, right)
		}
	}
	out := make([]int, len(vars))
	for i, v := range vars {
		out[sl[i].at-left] = v
	}
	return out
}

// ApplyIntra runs an intra-DBC heuristic on DBCs [from, to) of the
// placement, returning a new placement. Used to pair DMA with Chen or
// ShiftsReduce on the non-disjoint DBCs only (Algorithm 1 lines 22-23) and
// with AFD on all DBCs.
func ApplyIntra(p *Placement, from, to int, h IntraHeuristic, s *trace.Sequence, a *trace.Analysis) *Placement {
	out := p.Clone()
	if from < 0 {
		from = 0
	}
	if to > len(out.DBC) {
		to = len(out.DBC)
	}
	for d := from; d < to; d++ {
		if len(out.DBC[d]) > 1 {
			out.DBC[d] = h(out.DBC[d], s, a)
		}
	}
	return out
}
