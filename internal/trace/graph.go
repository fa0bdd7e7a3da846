package trace

import "sort"

// Graph is the weighted undirected access graph of a sequence. Vertices are
// variables; the weight of edge {u,v} counts how many times u and v were
// accessed consecutively (in either order). Self pairs (u == u) are not
// edges: consecutive accesses to the same variable cost no shifts.
type Graph struct {
	n int
	w map[edgeKey]int
	// adj[v] lists the neighbours of v (unordered).
	adj [][]int
}

type edgeKey struct{ u, v int }

func normKey(u, v int) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// Edge is one weighted access-graph edge with U < V.
type Edge struct {
	U, V   int
	Weight int
}

// BuildSubgraph constructs the access graph of the subsequence of s
// restricted to variables in the given set (consecutive-in-restriction
// pairs). This matches how per-DBC costs arise: the access sequence is
// first partitioned across DBCs and each DBC sees only its own accesses.
func BuildSubgraph(s *Sequence, member func(v int) bool) *Graph {
	g := &Graph{n: s.NumVars(), w: make(map[edgeKey]int)}
	prev := -1
	for _, a := range s.Accesses {
		if !member(a.Var) {
			continue
		}
		if prev >= 0 && prev != a.Var {
			g.w[normKey(prev, a.Var)]++
		}
		prev = a.Var
	}
	g.buildAdj()
	return g
}

func (g *Graph) buildAdj() {
	g.adj = make([][]int, g.n)
	//rtmlint:detcheck-ok iteration order never escapes: every adjacency list is sorted immediately below
	for k := range g.w {
		g.adj[k.u] = append(g.adj[k.u], k.v)
		g.adj[k.v] = append(g.adj[k.v], k.u)
	}
	for _, a := range g.adj {
		sort.Ints(a)
	}
}

// Weight returns the weight of edge {u,v}, or 0 when absent.
func (g *Graph) Weight(u, v int) int {
	if u == v {
		return 0
	}
	return g.w[normKey(u, v)]
}

// Neighbors returns the sorted neighbour list of v. The returned slice is
// shared; callers must not modify it.
func (g *Graph) Neighbors(v int) []int {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// Degree returns the weighted degree of v: the sum of incident edge weights.
func (g *Graph) Degree(v int) int {
	d := 0
	for _, u := range g.Neighbors(v) {
		d += g.Weight(u, v)
	}
	return d
}

// Edges returns all edges sorted by descending weight; ties break by
// ascending (U, V) so the order is deterministic.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, len(g.w))
	for k, w := range g.w {
		es = append(es, Edge{U: k.u, V: k.v, Weight: w})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Weight != es[j].Weight {
			return es[i].Weight > es[j].Weight
		}
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}
