package placement

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// oracleGraph is the map-based access graph the intra heuristics ran on
// before accessGraph replaced it, kept as the oracle accessGraph is held
// to. Vertices are variables; the weight of edge {u,v} counts how many
// times u and v were accessed consecutively (in either order). Self
// pairs are not edges: consecutive accesses to the same variable cost no
// shifts.
type oracleGraph struct {
	n   int
	w   map[oracleKey]int
	adj [][]int // adj[v] lists the neighbours of v, sorted
}

type oracleKey struct{ u, v int }

func normKey(u, v int) oracleKey {
	if u > v {
		u, v = v, u
	}
	return oracleKey{u, v}
}

// oracleEdge is one weighted access-graph edge with U < V.
type oracleEdge struct {
	U, V   int
	Weight int
}

// buildSubgraph constructs the access graph of the subsequence of s
// restricted to variables in the given set (consecutive-in-restriction
// pairs).
func buildSubgraph(s *trace.Sequence, member func(v int) bool) *oracleGraph {
	g := &oracleGraph{n: s.NumVars(), w: make(map[oracleKey]int)}
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
	g.adj = make([][]int, g.n)
	for k := range g.w {
		g.adj[k.u] = append(g.adj[k.u], k.v)
		g.adj[k.v] = append(g.adj[k.v], k.u)
	}
	for _, a := range g.adj {
		sort.Ints(a)
	}
	return g
}

// buildGraph is the access graph of the whole sequence.
func buildGraph(s *trace.Sequence) *oracleGraph {
	return buildSubgraph(s, func(int) bool { return true })
}

// Weight returns the weight of edge {u,v}, or 0 when absent.
func (g *oracleGraph) Weight(u, v int) int {
	if u == v {
		return 0
	}
	return g.w[normKey(u, v)]
}

// Neighbors returns the sorted neighbour list of v.
func (g *oracleGraph) Neighbors(v int) []int {
	if v < 0 || v >= len(g.adj) {
		return nil
	}
	return g.adj[v]
}

// Degree returns the weighted degree of v: the sum of incident edge weights.
func (g *oracleGraph) Degree(v int) int {
	d := 0
	for _, u := range g.Neighbors(v) {
		d += g.Weight(u, v)
	}
	return d
}

// Edges returns all edges sorted by descending weight; ties break by
// ascending (U, V).
func (g *oracleGraph) Edges() []oracleEdge {
	es := make([]oracleEdge, 0, len(g.w))
	for k, w := range g.w {
		es = append(es, oracleEdge{U: k.u, V: k.v, Weight: w})
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

// totalWeight is the sum of g's edge weights: for buildGraph, the
// number of non-self consecutive pairs of the sequence.
func totalWeight(g *oracleGraph) int {
	t := 0
	for _, e := range g.Edges() {
		t += e.Weight
	}
	return t
}

// cutWeight is the total weight of g's edges with exactly one endpoint
// in the set.
func cutWeight(g *oracleGraph, inSet func(v int) bool) int {
	c := 0
	for _, e := range g.Edges() {
		if inSet(e.U) != inSet(e.V) {
			c += e.Weight
		}
	}
	return c
}

// selfAccesses counts the consecutive repeated accesses of s, which no
// placement charges.
func selfAccesses(s *trace.Sequence) int {
	n := 0
	for i := 1; i < len(s.Accesses); i++ {
		if s.Accesses[i].Var == s.Accesses[i-1].Var {
			n++
		}
	}
	return n
}

// innerFreqSum is the sum of access frequencies of all variables whose
// lifespan lies strictly inside the lifespan of v, i.e. Fu > Fv and
// Lu < Lv, restricted to the candidate set (nil means all variables):
// the quantity Algorithm 1 compares Av against, as it was computed
// before innerFreqLater.
func innerFreqSum(a *trace.Analysis, v int, candidates []int) int {
	sum := 0
	if candidates == nil {
		for u := range a.Freq {
			if u != v && a.First[u] > a.First[v] && a.Last[u] < a.Last[v] {
				sum += a.Freq[u]
			}
		}
		return sum
	}
	for _, u := range candidates {
		if u != v && a.First[u] > a.First[v] && a.Last[u] < a.Last[v] {
			sum += a.Freq[u]
		}
	}
	return sum
}

// membership builds a dense membership mask for a variable subset.
func membership(vars []int, numVars int) []bool {
	m := make([]bool, numVars)
	for _, v := range vars {
		if v >= 0 && v < numVars {
			m[v] = true
		}
	}
	return m
}

// graphWeight is the weight of {u, v} in g, read off u's row.
func graphWeight(g *accessGraph, u, v int) int64 {
	for k := g.start[u]; k < g.start[u+1]; k++ {
		if int(g.nbr[k]) == v {
			return g.wgt[k]
		}
	}
	return 0
}

// wholeGraph is the accessGraph of every variable of s.
func wholeGraph(s *trace.Sequence) accessGraph {
	vars := make([]int, s.NumVars())
	for v := range vars {
		vars[v] = v
	}
	return graphFromStream(s, memberIndex(s.NumVars(), vars))
}

func TestAccessGraph(t *testing.T) {
	s, err := trace.NewNamedSequence("a", "b", "a", "b", "c", "c", "a")
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(s)
	dense := wholeGraph(s)
	a, b, c := varID(t, s, "a"), varID(t, s, "b"), varID(t, s, "c")
	for _, tc := range []struct {
		u, v, want int
		what       string
	}{
		{a, b, 3, "w(a,b)"},
		{b, c, 1, "w(b,c)"},
		{a, c, 1, "w(a,c) (self pair c,c is not an edge)"},
		{c, c, 0, "self weight"},
	} {
		if w := g.Weight(tc.u, tc.v); w != tc.want {
			t.Errorf("oracle %s = %d, want %d", tc.what, w, tc.want)
		}
		if w := graphWeight(&dense, tc.u, tc.v); w != int64(tc.want) {
			t.Errorf("accessGraph %s = %d, want %d", tc.what, w, tc.want)
		}
	}
	if w := totalWeight(g); w != 5 {
		t.Errorf("total weight = %d, want 5", w)
	}
	es := g.Edges()
	if len(es) != 3 || es[0].Weight != 3 {
		t.Errorf("Edges() = %v, want a-b first with weight 3", es)
	}
	if des := dense.edges(); len(des) != 3 || des[0].w != 3 {
		t.Errorf("edges() = %v, want a-b first with weight 3", des)
	}
	if d := g.Degree(a); d != 4 {
		t.Errorf("degree(a) = %d, want 4", d)
	}
	if d := dense.degree(a); d != 4 {
		t.Errorf("accessGraph degree(a) = %d, want 4", d)
	}
	if dense.accesses != s.Len() {
		t.Errorf("accessGraph accesses = %d, want %d", dense.accesses, s.Len())
	}
}

func TestBuildSubgraph(t *testing.T) {
	s, err := trace.NewNamedSequence("a", "x", "b", "x", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	members := map[string]bool{"a": true, "b": true}
	g := buildSubgraph(s, func(v int) bool { return members[s.Name(v)] })
	a, b := varID(t, s, "a"), varID(t, s, "b")
	// Restricted sequence: a b a b -> w(a,b) = 3.
	if w := g.Weight(a, b); w != 3 {
		t.Errorf("restricted w(a,b) = %d, want 3", w)
	}
	dense := graphFromStream(s, memberIndex(s.NumVars(), []int{a, b}))
	if w := graphWeight(&dense, a, b); w != 3 || dense.accesses != 4 {
		t.Errorf("accessGraph restricted w(a,b) = %d over %d accesses, want 3 over 4", w, dense.accesses)
	}
}

// Property: graph total weight equals charged (non-self) transitions, and
// equals the sum over edges; frequency sums to sequence length.
func TestGraphProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		vars := make([]int, len(raw))
		for i, r := range raw {
			vars[i] = int(r % 10)
		}
		s := trace.NewSequence(vars...)
		a := trace.Analyze(s)
		g := buildGraph(s)
		dense := wholeGraph(s)
		trans := 0
		for i := 1; i < len(vars); i++ {
			if vars[i] != vars[i-1] {
				trans++
			}
		}
		var rows int64
		for _, w := range dense.wgt {
			rows += w
		}
		if totalWeight(g) != trans || rows != 2*int64(trans) {
			return false
		}
		sum := 0
		for _, f := range a.Freq {
			sum += f
		}
		return sum == s.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: self accesses + total weight == Len-1 for non-empty sequences.
func TestSelfAccessesComplement(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vars := make([]int, len(raw))
		for i, r := range raw {
			vars[i] = int(r % 6)
		}
		s := trace.NewSequence(vars...)
		return selfAccesses(s)+totalWeight(buildGraph(s)) == s.Len()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCutWeight(t *testing.T) {
	s := trace.NewSequence(0, 1, 2, 0, 2)
	g := buildGraph(s)
	// Edges: 0-1 (1), 1-2 (1), 2-0 (2).
	cut := cutWeight(g, func(v int) bool { return v == 0 })
	if cut != 3 {
		t.Errorf("cut({0}) = %d, want 3", cut)
	}
	if c := cutWeight(g, func(v int) bool { return true }); c != 0 {
		t.Errorf("cut(V) = %d, want 0", c)
	}
}

func TestInnerFreqSum(t *testing.T) {
	s := fig3Sequence(t)
	a := trace.Analyze(s)
	order := a.ByFirstUse()
	later := func(v int) []int { return order[slices.Index(order, v)+1:] }
	// Paper: for a (Av=5) the objects within its lifespan are b, c, d with
	// frequency sum 6. For i (spans 12..24): e, f, g, h lie inside, sum =
	// 3+2+3+2 = 10.
	for _, tc := range []struct {
		name string
		want int
	}{{"a", 6}, {"i", 10}} {
		v := varID(t, s, tc.name)
		if got := innerFreqSum(a, v, nil); got != tc.want {
			t.Errorf("innerFreqSum(%s) = %d, want %d", tc.name, got, tc.want)
		}
		if got := innerFreqLater(a, v, later(v)); got != tc.want {
			t.Errorf("innerFreqLater(%s) = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// FuzzAccessGraphParity holds accessGraph to the map-based oracle it
// replaced. From a fuzzed sequence and member mask it checks every pair
// weight, every degree, the edge order Chen accepts edges in and the
// member access count against oracleGraph; that the stream-built graph
// equals the kernel-built one row for row, as multisets; and that
// extractDisjoint's inner sum equals innerFreqSum over the remaining and
// later candidates, the set Algorithm 1 names, for every candidate.
func FuzzAccessGraphParity(f *testing.F) {
	f.Add([]byte{7, 0x5b, 0x01, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 1, 0, 3, 3, 6})
	f.Add([]byte{3, 0xff, 0x80, 0, 1, 0, 1, 2, 2, 0, 1, 2, 1})
	f.Add([]byte{20, 0x36, 0x5c, 1, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 19, 1, 7, 3, 2, 9, 15, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip()
		}
		// Header: universe size in [1, 24] and a 16-bit member mask.
		// Bit b < 15 makes every variable v ≡ b (mod 15) a member; bit
		// 15 adds a member just past the universe, never accessed.
		universe := 1 + int(data[0]%24)
		mask := uint16(data[1]) | uint16(data[2])<<8
		body := data[3:]
		names := make([]string, universe)
		for i := range names {
			names[i] = "v" + string(rune('a'+i))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range body {
			s.Append(int(b)%universe, false)
		}
		var vars []int
		for v := 0; v < universe; v++ {
			if mask&(1<<(v%15)) != 0 {
				vars = append(vars, v)
			}
		}
		if mask&(1<<15) != 0 {
			vars = append(vars, universe)
		}
		member := membership(vars, universe)
		isMember := func(v int) bool { return member[v] }

		idx := memberIndex(universe, vars)
		g := graphFromStream(s, idx)
		o := buildSubgraph(s, isMember)
		width := len(idx)
		if len(g.start) != width+1 {
			t.Fatalf("%d rows, want %d", len(g.start)-1, width)
		}
		accesses := 0
		for _, a := range s.Accesses {
			if member[a.Var] {
				accesses++
			}
		}
		if g.accesses != accesses {
			t.Fatalf("accesses %d, want %d", g.accesses, accesses)
		}
		for u := 0; u < width; u++ {
			seen := map[int32]bool{}
			for k := g.start[u]; k < g.start[u+1]; k++ {
				n := g.nbr[k]
				if seen[n] || int(n) == u || g.wgt[k] <= 0 {
					t.Fatalf("row %d: entry %d (weight %d) repeated, self or empty", u, n, g.wgt[k])
				}
				seen[n] = true
			}
			if got, want := g.degree(u), int64(o.Degree(u)); got != want {
				t.Fatalf("degree(%d) = %d, want %d", u, got, want)
			}
			for v := 0; v < width; v++ {
				if got, want := graphWeight(&g, u, v), int64(o.Weight(u, v)); got != want {
					t.Fatalf("w(%d,%d) = %d, want %d", u, v, got, want)
				}
			}
		}
		es, oes := g.edges(), o.Edges()
		if len(es) != len(oes) {
			t.Fatalf("%d edges, want %d", len(es), len(oes))
		}
		for i, e := range es {
			if oe := oes[i]; int(e.u) != oe.U || int(e.v) != oe.V || e.w != int64(oe.Weight) {
				t.Fatalf("edge %d = %+v, want %+v", i, e, oe)
			}
		}

		kg := graphFromKernel(NewCostKernel(s), vars, idx)
		if kg.accesses != g.accesses || !slices.Equal(kg.start, g.start) {
			t.Fatalf("kernel graph: %d accesses, rows %v; stream graph: %d, %v", kg.accesses, kg.start, g.accesses, g.start)
		}
		type entry struct {
			n int32
			w int64
		}
		row := func(g *accessGraph, u int) []entry {
			var r []entry
			for k := g.start[u]; k < g.start[u+1]; k++ {
				r = append(r, entry{g.nbr[k], g.wgt[k]})
			}
			slices.SortFunc(r, func(x, y entry) int { return int(x.n - y.n) })
			return r
		}
		for u := 0; u < width; u++ {
			if kr, sr := row(&kg, u), row(&g, u); !slices.Equal(kr, sr) {
				t.Fatalf("row %d: kernel graph %v, stream graph %v", u, kr, sr)
			}
		}

		a := trace.Analyze(s)
		cands := a.ByFirstUse()
		var selected, remaining []int
		tmin := 0
		for i, v := range cands {
			others := append(append([]int(nil), remaining...), cands[i+1:]...)
			want := innerFreqSum(a, v, others)
			if got := innerFreqLater(a, v, cands[i+1:]); got != want {
				t.Fatalf("candidate %d: inner sum %d, oracle %d", v, got, want)
			}
			if a.First[v] > tmin && a.Freq[v] > want {
				selected = append(selected, v)
				tmin = a.Last[v]
				continue
			}
			remaining = append(remaining, v)
		}
		gotSel, gotRem := extractDisjoint(a, cands)
		if !slices.Equal(gotSel, selected) || !slices.Equal(gotRem, remaining) {
			t.Fatalf("extractDisjoint = %v, %v; oracle %v, %v", gotSel, gotRem, selected, remaining)
		}
	})
}
