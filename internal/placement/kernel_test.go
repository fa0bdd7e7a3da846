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
		if ref.Cost() != der.Cost() || ref.Accesses() != der.Accesses() {
			t.Fatalf("trial %d: replay-built (cost %d, %d accesses) vs kernel-derived (cost %d, %d accesses)",
				trial, ref.Cost(), ref.Accesses(), der.Cost(), der.Accesses())
		}
		for m := 0; m < 30; m++ {
			i, j := rng.Intn(len(order)), rng.Intn(len(order))
			if i > j {
				i, j = j, i
			}
			if sr, sd := ref.SwapDelta(i, j), der.SwapDelta(i, j); sr != sd {
				t.Fatalf("trial %d move %d: SwapDelta(%d,%d) %d vs %d", trial, m, i, j, sr, sd)
			}
			if rr, rd := ref.ReverseDelta(i, j), der.ReverseDelta(i, j); rr != rd {
				t.Fatalf("trial %d move %d: ReverseDelta(%d,%d) %d vs %d", trial, m, i, j, rr, rd)
			}
			if m%2 == 0 {
				ref.Swap(i, j)
				der.Swap(i, j)
			} else {
				ref.Reverse(i, j)
				der.Reverse(i, j)
			}
			if ref.Cost() != der.Cost() {
				t.Fatalf("trial %d move %d: costs diverged %d vs %d", trial, m, ref.Cost(), der.Cost())
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

// TestDBCCostCacheParity pins the GA's cached evaluator against the
// replay oracle per DBC across repeated, related genomes (clean
// inherited DBCs, hits, minority misses and bulk misses all exercised).
func TestDBCCostCacheParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		numVars := 4 + rng.Intn(16)
		s := randKernelSeq(rng, numVars, 50+rng.Intn(200))
		q := 2 + rng.Intn(4)
		r := testGARun(t, s, q, quickGA(int64(trial)))
		g := pricedGenome(t, r, randFullPlacement(rng, numVars, q))
		for step := 0; step < 60; step++ {
			switch rng.Intn(4) {
			case 0: // fresh placement: bulk miss
				g = pricedGenome(t, r, randFullPlacement(rng, numVars, q))
			case 1: // transpose inside one DBC: minority miss
				g = r.child(g)
				r.mutateTranspose(g)
			case 2: // every DBC reordered: mostly misses
				g = r.child(g)
				r.mutatePermute(g)
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
