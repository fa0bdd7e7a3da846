package placement

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// fullRestrictedCost is the reference objective: the intra-DBC shift cost
// of the sequence restricted to the order's variables, recomputed from
// scratch through the production ShiftCost path.
func fullRestrictedCost(t testing.TB, s *trace.Sequence, order []int) int64 {
	t.Helper()
	member := membership(order, s.NumVars())
	r := s.Restrict(func(v int) bool { return v < len(member) && member[v] })
	c, err := ShiftCost(r, &Placement{DBC: [][]int{order}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reverseDeltaOracle is the reference the row sums of ImprovePass are
// checked against: the cost change of reversing the offset segment
// [i, j] of e's order, without applying it. Distances between two
// interior or two exterior variables are preserved, so only transitions
// crossing the segment boundary contribute; they are enumerated from the
// smaller side.
func reverseDeltaOracle(e *DeltaEvaluator, i, j int) int64 {
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

// reverseByOracle applies the reversal of [i, j] priced by the oracle and
// returns that price.
func reverseByOracle(e *DeltaEvaluator, i, j int) int64 {
	d := reverseDeltaOracle(e, i, j)
	e.reverse(i, j, d)
	return d
}

// improvePassOracle is ImprovePass with every reversal priced by
// reverseDeltaOracle: the same sweep, move order and acceptance rule.
func improvePassOracle(e *DeltaEvaluator) bool {
	improved := false
	n := len(e.order)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if e.SwapDelta(i, j) < 0 {
				e.Swap(i, j)
				improved = true
				continue
			}
			if d := reverseDeltaOracle(e, i, j); d < 0 {
				e.reverse(i, j, d)
				improved = true
			}
		}
	}
	return improved
}

// checkRowSums prices every reversal [i, j] of e's current order from
// the row sums, growing each row i one offset at a time as ImprovePass
// does, and fails on the first price that differs from the oracle.
func checkRowSums(t testing.TB, e *DeltaEvaluator) {
	t.Helper()
	for i := range e.order {
		var r rowSums
		for j := i; j < len(e.order); j++ {
			e.extend(&r, i, j)
			if got, want := r.reverseDelta(int64(i+j)), reverseDeltaOracle(e, i, j); got != want {
				t.Fatalf("order %v: row sums price reversal [%d,%d] at %d, oracle %d", e.order, i, j, got, want)
			}
		}
	}
}

// cloneDelta copies e's order, positions and cost; the two evaluators
// share the read-only transition rows.
func cloneDelta(e *DeltaEvaluator) *DeltaEvaluator {
	c := *e
	c.order = append([]int(nil), e.order...)
	c.pos = append([]int(nil), e.pos...)
	return &c
}

// Property: across random sequences, random member subsets and random
// swap/reversal move chains, the incremental cost is bit-identical to the
// full recompute, each predicted delta matches the realized change, and
// the row sums price every reversal as the oracle does.
func TestDeltaEvaluatorParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		numVars := 4 + rng.Intn(36)
		s := randSeq(rng, numVars, 30+rng.Intn(370))

		// Order over a random subset (sometimes everything) so the
		// non-member-transparency path is exercised too.
		perm := rng.Perm(numVars)
		k := 3 + rng.Intn(numVars-2)
		order := perm[:k]

		e := NewDeltaEvaluator(s, order)
		want := fullRestrictedCost(t, s, order)
		if e.cost != want {
			t.Fatalf("trial %d: setup cost %d, full recompute %d", trial, e.cost, want)
		}

		for move := 0; move < 120; move++ {
			i, j := rng.Intn(k), rng.Intn(k)
			if i > j {
				i, j = j, i
			}
			before := e.cost
			var predicted int64
			if rng.Intn(2) == 0 {
				predicted = e.SwapDelta(i, j)
				e.Swap(i, j)
			} else {
				predicted = reverseByOracle(e, i, j)
			}
			if got := e.cost - before; got != predicted {
				t.Fatalf("trial %d move %d [%d,%d]: predicted delta %d, applied %d",
					trial, move, i, j, predicted, got)
			}
			want := fullRestrictedCost(t, s, e.CurrentOrder())
			if e.cost != want {
				t.Fatalf("trial %d move %d [%d,%d]: incremental cost %d, full recompute %d",
					trial, move, i, j, e.cost, want)
			}
			if move%20 == 0 {
				checkRowSums(t, e)
			}
		}
	}
}

// The rewritten TwoOpt must follow the seed implementation's search
// trajectory move-for-move: identical returned orders, not merely equal
// costs.
func TestTwoOptMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 50; trial++ {
		numVars := 3 + rng.Intn(11)
		s := randSeq(rng, numVars, 20+rng.Intn(230))
		a := trace.Analyze(s)
		vars := a.ByFirstUse()
		if len(vars) < 3 {
			continue
		}
		rng.Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })

		got := TwoOpt(vars, s, a)
		want := twoOptReference(vars, s, a)
		if len(got) != len(want) {
			t.Fatalf("trial %d: length %d vs %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: orders diverge at offset %d:\n got %v\nwant %v",
					trial, i, got, want)
			}
		}
	}
}

// TwoOpt must also keep matching the reference when the DBC holds only a
// subset of the accessed variables (the ApplyIntra path).
func TestTwoOptMatchesReferenceOnSubsets(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 30; trial++ {
		numVars := 6 + rng.Intn(10)
		s := randSeq(rng, numVars, 40+rng.Intn(160))
		perm := rng.Perm(numVars)
		k := 3 + rng.Intn(numVars-3)
		vars := perm[:k]
		a := trace.Analyze(s)

		got := TwoOpt(vars, s, a)
		want := twoOptReference(vars, s, a)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: orders diverge at offset %d:\n got %v\nwant %v",
					trial, i, got, want)
			}
		}
	}
}

// After setup, move evaluation and application must not allocate.
func TestDeltaEvaluatorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	s := randSeq(rng, 24, 600)
	a := trace.Analyze(s)
	order := a.ByFirstUse()
	if len(order) < 8 {
		t.Fatal("workload too small")
	}
	e := NewDeltaEvaluator(s, order)
	n := len(e.order)
	allocs := testing.AllocsPerRun(50, func() {
		e.SwapDelta(0, n-1)
		e.Swap(1, n-2)
		reverseByOracle(e, 2, n-3)
		e.ImprovePass()
	})
	if allocs != 0 {
		t.Errorf("move evaluation allocated %.1f times per run, want 0", allocs)
	}
}

func TestDeltaEvaluatorEdgeCases(t *testing.T) {
	s := trace.NewSequence(0, 1, 2, 0, 1)

	e := NewDeltaEvaluator(s, nil)
	if e.cost != 0 || e.Accesses() != 0 || len(e.order) != 0 {
		t.Errorf("empty order: cost %d accesses %d len %d", e.cost, e.Accesses(), len(e.order))
	}

	e = NewDeltaEvaluator(s, []int{1})
	if e.cost != 0 {
		t.Errorf("single variable: cost %d, want 0", e.cost)
	}
	if e.Accesses() != 2 {
		t.Errorf("single variable: accesses %d, want 2", e.Accesses())
	}

	// Self-transitions cost nothing and must not create edges.
	selfy := trace.NewSequence(0, 0, 0, 1, 1, 0)
	e = NewDeltaEvaluator(selfy, []int{0, 1})
	if e.cost != 2 { // 0->1 and 1->0, distance 1 each
		t.Errorf("self-transition sequence: cost %d, want 2", e.cost)
	}

	// A variable in the order but never accessed is a zero-degree row.
	e = NewDeltaEvaluator(s, []int{2, 1, 0})
	want := fullRestrictedCost(t, s, []int{2, 1, 0})
	if e.cost != want {
		t.Errorf("full order: cost %d, want %d", e.cost, want)
	}
}

// The worked example of the paper's Fig. 3 arithmetic, by hand: sequence
// a b c a b with order [a b c] costs |0-1|+|1-2|+|2-0|+|0-1| = 5.
func TestDeltaEvaluatorHandComputed(t *testing.T) {
	s := trace.NewSequence(0, 1, 2, 0, 1)
	e := NewDeltaEvaluator(s, []int{0, 1, 2})
	if e.cost != 5 {
		t.Fatalf("cost %d, want 5", e.cost)
	}
	// Swapping offsets of b and c: order [a c b], cost
	// |0-2|+|2-1|+|1-0|+|0-2| = 6, delta +1.
	if d := e.SwapDelta(1, 2); d != 1 {
		t.Fatalf("swap delta %d, want 1", d)
	}
	// Reversing [0,2] mirrors every offset: pairwise distances are all
	// preserved, delta 0.
	if d := reverseDeltaOracle(e, 0, 2); d != 0 {
		t.Fatalf("full reversal delta %d, want 0", d)
	}
	// Row i = 1 at j = 2: b and c cross to a on the left with weights 2
	// (a->b twice) and 1 (c->a), so a = 3, ax = 2·1 + 1·2 = 4, b = bx = 0
	// and Δrev(1, 2) = 3·3 − 2·4 = 1: the same move as the swap above.
	var r rowSums
	e.extend(&r, 1, 1)
	e.extend(&r, 1, 2)
	if r != (rowSums{a: 3, ax: 4}) {
		t.Fatalf("row sums of [1,2] = %+v, want {a:3 ax:4 b:0 bx:0}", r)
	}
	if d := r.reverseDelta(3); d != 1 {
		t.Fatalf("row-sum reversal delta %d, want 1", d)
	}
}
