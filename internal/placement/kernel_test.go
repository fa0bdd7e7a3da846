package placement

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

// randKernelSeq builds a random sequence mixing uniform accesses with
// repeated loop bodies, the two regimes that exercise the stencil table
// (fresh stencils vs multiplicity merging).
func randKernelSeq(rng *rand.Rand, numVars, length int) *trace.Sequence {
	s := &trace.Sequence{Names: make([]string, numVars)}
	for v := range s.Names {
		s.Names[v] = "v" + string(rune('a'+v%26)) + string(rune('a'+v/26))
	}
	for s.Len() < length {
		if rng.Intn(3) == 0 && s.Len() > 4 {
			// Replay a window: loops produce identical stencils.
			w := 2 + rng.Intn(6)
			if w > s.Len() {
				w = s.Len()
			}
			start := rng.Intn(s.Len() - w + 1)
			reps := 1 + rng.Intn(4)
			window := append([]trace.Access(nil), s.Accesses[start:start+w]...)
			for r := 0; r < reps && s.Len() < length; r++ {
				for _, a := range window {
					s.Append(a.Var, a.Write)
				}
			}
			continue
		}
		s.Append(rng.Intn(numVars), rng.Intn(5) == 0)
	}
	return s
}

// randFullPlacement places every universe variable into q DBCs with a
// random intra order.
func randFullPlacement(rng *rand.Rand, numVars, q int) *Placement {
	p := NewEmpty(q)
	for v := 0; v < numVars; v++ {
		d := rng.Intn(q)
		p.DBC[d] = append(p.DBC[d], v)
	}
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	return p
}

// TestKernelMatchesReplayRandom pins the tentpole invariant: the O(nnz)
// kernel evaluation is bit-identical to the O(accesses) replay oracle
// for random sequences, random DBC counts and random placements.
func TestKernelMatchesReplayRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		numVars := 1 + rng.Intn(24)
		s := randKernelSeq(rng, numVars, 1+rng.Intn(400))
		k := NewCostKernel(s)
		if k.Accesses() != s.Len() {
			t.Fatalf("trial %d: kernel summarizes %d accesses, sequence has %d", trial, k.Accesses(), s.Len())
		}
		for rep := 0; rep < 8; rep++ {
			q := 1 + rng.Intn(6)
			p := randFullPlacement(rng, numVars, q)
			want, err := ShiftCost(s, p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d rep %d (q=%d): kernel %d, replay %d\nseq: %v\nplacement: %v",
					trial, rep, q, got, want, s, p)
			}
		}
	}
}

// TestKernelMatchesReplayOnSuite checks the parity on real strategy
// output: for a slice of the OffsetStone suite, every heuristic
// strategy's replay-priced placement re-prices identically on a kernel.
func TestKernelMatchesReplayOnSuite(t *testing.T) {
	names := offsetstone.Names()
	if testing.Short() && len(names) > 6 {
		names = names[:6]
	}
	for _, name := range names {
		b, err := offsetstone.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range b.Sequences {
			if si >= 2 {
				break
			}
			k := NewCostKernel(s)
			for _, q := range []int{2, 4, 8} {
				for _, id := range HeuristicStrategies() {
					p, c, err := testRegistry.Place(id, s, q, Options{})
					if err != nil {
						t.Fatal(err)
					}
					kc, err := k.Evaluate(p)
					if err != nil {
						t.Fatal(err)
					}
					if kc != c {
						t.Fatalf("%s seq %d %s q=%d: kernel %d, strategy reported %d", name, si, id, q, kc, c)
					}
				}
			}
		}
	}
}

// TestDeltaFromKernelParity pins that the kernel-derived DeltaEvaluator
// is indistinguishable from the replay-built one: same initial cost and
// access count, same move deltas, and the same search trajectory.
func TestDeltaFromKernelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		numVars := 3 + rng.Intn(20)
		s := randKernelSeq(rng, numVars, 20+rng.Intn(300))
		k := NewCostKernel(s)

		// Random member subset with a random order.
		var order []int
		for v := 0; v < numVars; v++ {
			if rng.Intn(2) == 0 {
				order = append(order, v)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if len(order) < 2 {
			continue
		}

		ref := NewDeltaEvaluator(s, order)
		der := NewDeltaEvaluatorFromKernel(k, order)
		if ref.cost != der.cost || ref.Accesses() != der.Accesses() {
			t.Fatalf("trial %d: replay-built (cost %d, %d accesses) vs kernel-derived (cost %d, %d accesses)",
				trial, ref.cost, ref.Accesses(), der.cost, der.Accesses())
		}
		for m := 0; m < 30; m++ {
			i, j := rng.Intn(len(order)), rng.Intn(len(order))
			if i > j {
				i, j = j, i
			}
			if sr, sd := ref.SwapDelta(i, j), der.SwapDelta(i, j); sr != sd {
				t.Fatalf("trial %d move %d: SwapDelta(%d,%d) %d vs %d", trial, m, i, j, sr, sd)
			}
			if rr, rd := reverseDeltaOracle(ref, i, j), reverseDeltaOracle(der, i, j); rr != rd {
				t.Fatalf("trial %d move %d: reversal delta (%d,%d) %d vs %d", trial, m, i, j, rr, rd)
			}
			if m%2 == 0 {
				ref.Swap(i, j)
				der.Swap(i, j)
			} else {
				reverseByOracle(ref, i, j)
				reverseByOracle(der, i, j)
			}
			if ref.cost != der.cost {
				t.Fatalf("trial %d move %d: costs diverged %d vs %d", trial, m, ref.cost, der.cost)
			}
		}
		ref.ImprovePass()
		der.ImprovePass()
		ro, do := ref.CurrentOrder(), der.CurrentOrder()
		for i := range ro {
			if ro[i] != do[i] {
				t.Fatalf("trial %d: ImprovePass trajectories diverged at offset %d: %v vs %v", trial, i, ro, do)
			}
		}
	}
}

// TestGAKernelSharingDeterminism pins that supplying a pre-built kernel
// (as the engine batch layer does) changes nothing about the GA result.
func TestGAKernelSharingDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randKernelSeq(rng, 14, 300)
	cfg := GAConfig{Mu: 16, Lambda: 16, Generations: 12, TournamentK: 4,
		MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3,
		ImproveWeight: 3, Seed: 5}

	base, err := GAContext(context.Background(), s, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shared := cfg
	shared.Kernel = NewCostKernel(s)
	got, err := GAContext(context.Background(), s, 4, shared)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cost != got.Cost || !base.Best.Equal(got.Best) {
		t.Fatalf("shared kernel changed the GA result: %d vs %d", base.Cost, got.Cost)
	}
	// A kernel for the wrong sequence must be ignored, not mis-applied.
	wrong := cfg
	wrong.Kernel = NewCostKernel(randKernelSeq(rng, 14, 100))
	got2, err := GAContext(context.Background(), s, 4, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if base.Cost != got2.Cost || !base.Best.Equal(got2.Best) {
		t.Fatalf("foreign kernel changed the GA result: %d vs %d", base.Cost, got2.Cost)
	}
}

// TestKernelCostZeroAlloc pins the steady-state fitness loop at zero
// allocations per evaluation: breeding a child into recycled storage,
// one transpose, and pricing its dirty DBC — exactly what the GA runs
// per offspring once its free list and DBC cost cache are warm.
func TestKernelCostZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randKernelSeq(rng, 20, 500)
	r := testGARun(t, s, 4, quickGA(1))
	parent := pricedGenome(t, r, randFullPlacement(rng, 20, 4))
	var sink int64
	allocs := testing.AllocsPerRun(200, func() {
		g := r.child(parent)
		r.mutateTranspose(g)
		r.fit[0].price(g)
		sink += g.total
		r.free = append(r.free, g)
	})
	if allocs != 0 {
		t.Fatalf("steady-state fitness evaluation allocates %.1f/op, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("degenerate workload: cost was always zero")
	}
}

// TestKernelEdgeCases covers the degenerate shapes: empty sequences,
// single accesses, self-transitions, and universes larger than the
// accessed set.
func TestKernelEdgeCases(t *testing.T) {
	empty := &trace.Sequence{Names: []string{"a", "b"}}
	k := NewCostKernel(empty)
	if c, err := k.Evaluate(&Placement{DBC: [][]int{{0, 1}}}); err != nil || c != 0 {
		t.Fatalf("empty sequence: cost %d err %v, want 0 nil", c, err)
	}

	s, err := trace.NewNamedSequence("a", "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	k = NewCostKernel(s)
	if c, _ := k.Evaluate(&Placement{DBC: [][]int{{0}}}); c != 0 {
		t.Fatalf("self-transitions must be free, got %d", c)
	}

	// Universe has an unaccessed variable c; pinning it anywhere between
	// a and b must not change the kernel cost vs replay.
	s, err = trace.NewNamedSequenceWithUniverse([]string{"a", "b", "c"}, "a", "b", "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	k = NewCostKernel(s)
	p := &Placement{DBC: [][]int{{0, 2, 1}}}
	want, err := ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got != 6 {
		t.Fatalf("unaccessed spacer: kernel %d, replay %d, want 6", got, want)
	}
	if k.NNZ() == 0 || k.Candidates() == 0 {
		t.Fatal("kernel table unexpectedly empty")
	}
}

// CostDBC returns one DBC's contribution to the full cost: the row
// groups of the DBC's member variables, scanned against the full
// lookup. A candidate hits only when it shares the member's DBC, so the
// per-DBC results sum to Cost over any placement. The GA's set-keyed
// cache (dbccache.go) prices the same contribution from a DBC's
// transition list; this scan is the reference it replaced.
func (k *CostKernel) CostDBC(l *Lookup, content []int) int64 {
	dbc, off := l.DBCOf, l.Offset
	var total int64
	for _, v := range content {
		total += k.varCost(dbc, off, v, dbc[v])
	}
	return total
}

// TestCostBoundedAndDBCDecomposition pins the two evaluation variants
// against Cost: an unbounded CostBounded is exactly Cost, a bounded one
// is exact below the bound and a valid certificate at or above it, and
// the per-DBC partial costs sum to the full cost for any placement.
func TestCostBoundedAndDBCDecomposition(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		numVars := 2 + rng.Intn(20)
		s := randKernelSeq(rng, numVars, 30+rng.Intn(300))
		k := NewCostKernel(s)
		q := 1 + rng.Intn(5)
		p := randFullPlacement(rng, numVars, q)
		l, err := p.BuildLookup(numVars)
		if err != nil {
			t.Fatal(err)
		}
		want := k.Cost(l)
		if got := k.CostBounded(l, int64(1)<<62); got != want {
			t.Fatalf("trial %d: unbounded CostBounded %d, Cost %d", trial, got, want)
		}
		for _, bound := range []int64{0, 1, want / 2, want, want + 1} {
			got := k.CostBounded(l, bound)
			if got < bound && got != want {
				t.Fatalf("trial %d bound %d: returned %d below bound but true cost is %d", trial, bound, got, want)
			}
			if want < bound && got != want {
				t.Fatalf("trial %d bound %d: cost %d is below bound but got %d", trial, bound, want, got)
			}
		}
		var sum int64
		for _, content := range p.DBC {
			if len(content) > 0 {
				sum += k.CostDBC(l, content)
			}
		}
		if sum != want {
			t.Fatalf("trial %d: per-DBC sum %d, Cost %d", trial, sum, want)
		}
	}
}

// TestDBCCostCacheParity pins the GA's set-keyed cost cache against the
// replay oracle per DBC, path by path: a set hit under a new order, a
// forced key collision, a first-sight bulk replay followed by a
// second-sight build, an arena reset mid-run and entries too large to
// keep; then over random chains of related genomes.
func TestDBCCostCacheParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randKernelSeq(rng, 16, 300)
	const q = 4
	// deal places the 16 variables four to a DBC in the order perm.
	deal := func(perm []int) *Placement {
		p := NewEmpty(q)
		for i, v := range perm {
			p.DBC[i/4] = append(p.DBC[i/4], v)
		}
		return p
	}
	setA, setB := deal(rng.Perm(16)), deal(rng.Perm(16))
	// fresh returns a run whose serial fitness prices through an empty
	// cache.
	fresh := func(t *testing.T) (*gaRun, *dbcCostCache) {
		r := testGARun(t, s, q, quickGA(1))
		c := newDBCCostCache(r.kern)
		r.fit[0].cache = c
		return r, c
	}
	price := func(t *testing.T, r *gaRun, g *genome) *genome {
		t.Helper()
		r.fit[0].price(g)
		if err := checkPriced(s, g, nil); err != nil {
			t.Fatal(err)
		}
		return g
	}
	// held counts the DBCs of g whose member set the cache holds.
	held := func(c *dbcCostCache, g *genome) int {
		n := 0
		for d, content := range g.DBC {
			var h uint64
			for _, v := range content {
				h += c.keys[v]
			}
			if _, ok := c.lookup(h, d, content, g.lookup.DBCOf); ok {
				n++
			}
		}
		return n
	}
	// reorder returns a child of g with every DBC permuted: the same
	// sets, all dirty.
	reorder := func(t *testing.T, r *gaRun, g *genome) *genome {
		t.Helper()
		c := r.child(g)
		r.mutatePermute(c)
		return price(t, r, c)
	}

	t.Run("first sight replays, second sight builds", func(t *testing.T) {
		r, c := fresh(t)
		g := pricedGenome(t, r, setA)
		if len(c.m) != 0 || len(c.trans) != 0 {
			t.Fatalf("first sight kept %d entries", len(c.m))
		}
		g = reorder(t, r, g)
		if len(c.m) != q || held(c, g) != q {
			t.Fatalf("second sight kept %d entries, %d of them g's; want %d", len(c.m), held(c, g), q)
		}
		n := len(c.trans)
		reorder(t, r, g)
		if len(c.m) != q || len(c.trans) != n {
			t.Fatalf("third sight built again: %d entries, %d transitions (want %d, %d)", len(c.m), len(c.trans), q, n)
		}
	})

	t.Run("hit under a new order", func(t *testing.T) {
		r, c := fresh(t)
		g := reorder(t, r, pricedGenome(t, r, setA))
		n := len(c.trans)
		for step := 0; step < 20; step++ {
			g = r.child(g)
			if step%2 == 0 {
				r.mutateTranspose(g)
			} else {
				r.mutatePermute(g)
			}
			price(t, r, g)
			if held(c, g) != q || len(c.trans) != n {
				t.Fatalf("step %d: a reordered set missed (%d entries, %d transitions)", step, len(c.m), len(c.trans))
			}
		}
	})

	t.Run("forced key collision", func(t *testing.T) {
		r, c := fresh(t)
		clear(c.keys) // every set keys to 0: equal sizes collide
		a := reorder(t, r, pricedGenome(t, r, setA))
		if len(c.m) != 1 {
			t.Fatalf("colliding sets kept %d entries, want 1", len(c.m))
		}
		b := reorder(t, r, pricedGenome(t, r, setB))
		reorder(t, r, a)
		reorder(t, r, b)
	})

	t.Run("arena reset mid-run", func(t *testing.T) {
		r, c := fresh(t)
		a := reorder(t, r, pricedGenome(t, r, setA))
		if held(c, a) != q {
			t.Fatalf("cache holds %d of A's sets, want %d", held(c, a), q)
		}
		c.maxTrans = len(c.trans) + 1 // full: B's builds reset it
		b := reorder(t, r, pricedGenome(t, r, setB))
		if len(c.trans) > c.maxTrans {
			t.Fatalf("arena holds %d transitions past its bound %d", len(c.trans), c.maxTrans)
		}
		if held(c, a) == q || held(c, b) == 0 {
			t.Fatalf("after the reset the cache holds %d of A's sets and %d of B's", held(c, a), held(c, b))
		}
		reorder(t, r, b) // hits on the entries kept across the reset
		reorder(t, r, a)
	})

	t.Run("entries too large to keep", func(t *testing.T) {
		for _, shrink := range []func(c *dbcCostCache){
			func(c *dbcCostCache) { c.maxTrans = 0 },
			func(c *dbcCostCache) { c.maxMembers = 3 },
		} {
			r, c := fresh(t)
			shrink(c)
			g := reorder(t, r, pricedGenome(t, r, setA))
			reorder(t, r, g)
			if len(c.m) != 0 || len(c.trans) != 0 || len(c.members) != 0 {
				t.Fatalf("kept %d entries (%d transitions, %d members) too large for the arenas",
					len(c.m), len(c.trans), len(c.members))
			}
		}
	})

	t.Run("random chains", func(t *testing.T) {
		for trial := 0; trial < 10; trial++ {
			numVars := 4 + rng.Intn(16)
			s := randKernelSeq(rng, numVars, 50+rng.Intn(200))
			q := 2 + rng.Intn(4)
			r := testGARun(t, s, q, quickGA(int64(trial)))
			g := pricedGenome(t, r, randFullPlacement(rng, numVars, q))
			for step := 0; step < 60; step++ {
				switch rng.Intn(5) {
				case 0: // fresh placement: bulk miss
					g = pricedGenome(t, r, randFullPlacement(rng, numVars, q))
				case 1: // transpose inside one DBC: a set hit or a minority miss
					g = r.child(g)
					r.mutateTranspose(g)
				case 2: // every DBC reordered: set hits or a bulk miss
					g = r.child(g)
					r.mutatePermute(g)
				case 3: // a variable moved: two new sets
					g = r.child(g)
					r.mutateMove(g)
				default: // unchanged: clean DBCs inherited
					g = r.child(g)
				}
				r.fit[0].price(g)
				if err := checkPriced(s, g, nil); err != nil {
					t.Fatalf("trial %d step %d: %v", trial, step, err)
				}
				if want := r.kern.Cost(&g.lookup); g.total != want {
					t.Fatalf("trial %d step %d: cached %d, Cost %d", trial, step, g.total, want)
				}
			}
		}
	})
}

// TestKernelMultiplicityMerging checks that loop iterations collapse
// into stencil multiplicities instead of fresh table rows.
func TestKernelMultiplicityMerging(t *testing.T) {
	s := &trace.Sequence{Names: []string{"a", "b", "c"}}
	for i := 0; i < 100; i++ {
		s.Append(0, false)
		s.Append(1, false)
		s.Append(2, false)
	}
	k := NewCostKernel(s)
	// Steady state has three distinct stencils (one per variable) plus
	// the three cold-start variants of the first iteration.
	if k.NNZ() > 6 {
		t.Fatalf("loop of 300 accesses produced %d stencils, want <= 6", k.NNZ())
	}
	p := &Placement{DBC: [][]int{{0, 1, 2}}}
	want, err := ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := k.Evaluate(p); got != want {
		t.Fatalf("merged kernel cost %d, replay %d", got, want)
	}
}
