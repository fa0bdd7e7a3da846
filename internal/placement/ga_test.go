package placement

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

func quickGA(seed int64) GAConfig {
	return GAConfig{Mu: 20, Lambda: 20, Generations: 25, TournamentK: 4,
		MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: seed}
}

// randomPlacement is the reference random generator behind the GA's
// initial population and the random walk: each variable goes to a
// uniform random DBC (the next one with room under a positive capacity),
// then every DBC is shuffled. randomPlacementLookup must consume the
// PRNG exactly as this does.
func randomPlacement(rng *rand.Rand, vars []int, q, capacity int) *Placement {
	p := NewEmpty(q)
	for _, v := range vars {
		d := rng.Intn(q)
		if capacity > 0 {
			for tries := 0; len(p.DBC[d]) >= capacity && tries < q; tries++ {
				d = (d + 1) % q
			}
		}
		p.DBC[d] = append(p.DBC[d], v)
	}
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	}
	return p
}

// testGARun returns a freshly initialized GA run, for driving the genome
// operators directly.
func testGARun(t testing.TB, s *trace.Sequence, q int, cfg GAConfig) *gaRun {
	t.Helper()
	r, err := newGARun(s, q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.trivial != nil {
		t.Fatal("sequence accesses no variable")
	}
	return r
}

// pricedGenome loads p into the run as a priced genome.
func pricedGenome(t testing.TB, r *gaRun, p *Placement) *genome {
	t.Helper()
	if err := r.checkSeed(p); err != nil {
		t.Fatal(err)
	}
	l, err := p.BuildLookup(r.s.NumVars())
	if err != nil {
		t.Fatal(err)
	}
	g := newGenome(p.Clone(), l)
	r.fit[0].price(g)
	return g
}

// checkGenome verifies what every operator must preserve: the rows are a
// valid placement of s within capacity, and the lookup is exactly
// BuildLookup of the rows.
func checkGenome(s *trace.Sequence, g *genome, capacity int) error {
	if err := g.Validate(s, capacity); err != nil {
		return err
	}
	want, err := g.BuildLookup(s.NumVars())
	if err != nil {
		return err
	}
	if !slices.Equal(g.lookup.DBCOf, want.DBCOf) || !slices.Equal(g.lookup.Offset, want.Offset) {
		return fmt.Errorf("lookup %v/%v, rows %v invert to %v/%v",
			g.lookup.DBCOf, g.lookup.Offset, g.DBC, want.DBCOf, want.Offset)
	}
	return nil
}

// checkPriced verifies a priced genome against the replay oracle: no DBC
// is dirty, and each carried per-DBC cost is ShiftCostBreakdown's with
// the fitness their total. Under a port model, whose fitness prices the
// whole genome, the fitness must be PortCost.
func checkPriced(s *trace.Sequence, g *genome, pm *PortModel) error {
	if slices.Contains(g.dirty, true) {
		return fmt.Errorf("priced genome %v still dirty: %v", g.DBC, g.dirty)
	}
	if pm != nil {
		want, err := PortCost(s, &g.Placement, pm)
		if err != nil || g.total != want {
			return fmt.Errorf("priced genome %v: fitness %d, PortCost %d (err %v)", g.DBC, g.total, want, err)
		}
		return nil
	}
	b, err := ShiftCostBreakdown(s, &g.Placement)
	if err != nil {
		return err
	}
	if !slices.Equal(g.cost, b.PerDBC) || g.total != b.Total {
		return fmt.Errorf("priced genome %v: costs %v (total %d), oracle %v (total %d)",
			g.DBC, g.cost, g.total, b.PerDBC, b.Total)
	}
	return nil
}

// The memetic GA-2opt registry strategy must produce valid, deterministic
// placements, and the local-improvement mutation itself must never raise
// the cost of the DBC it polishes.
func TestGAMemeticStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := randSeq(rng, 12, 150)
	opts := Options{GA: quickGA(7), DisableGASeeding: true}
	p1, c1, err := testRegistry.Place(StrategyGAMemetic, s, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Validate(s, 0); err != nil {
		t.Fatalf("GA-2opt produced invalid placement: %v", err)
	}
	p2, c2, err := testRegistry.Place(StrategyGAMemetic, s, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 || !p1.Equal(p2) {
		t.Fatalf("GA-2opt not deterministic: %d vs %d", c1, c2)
	}

	for trial := 0; trial < 25; trial++ {
		seq := randSeq(rng, 4+rng.Intn(10), 30+rng.Intn(100))
		q := 1 + rng.Intn(3)
		cfg := quickGA(int64(trial))
		if trial%2 == 1 { // exercise both the kernel-derived and the port-aware sweep
			pm, err := NewPortModel(16, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Port = pm
		}
		r := testGARun(t, seq, q, cfg)
		g := r.child(r.pop[0])
		before := g.total
		r.mutateImprove(g)
		if err := checkGenome(seq, g, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r.fit[0].price(g)
		if err := checkPriced(seq, g, cfg.Port); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if g.total > before {
			t.Fatalf("trial %d: mutateImprove worsened %d -> %d", trial, before, g.total)
		}
	}
}

func TestGAFindsOptimumOnSmallInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		n := 3 + rng.Intn(5) // 3..7 variables
		s := randSeq(rng, n, 10+rng.Intn(30))
		q := 1 + rng.Intn(3)
		ex, err := Exact(s, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickGA(int64(trial))
		cfg.Mu, cfg.Lambda, cfg.Generations = 40, 40, 120
		// Seed with the heuristics, as the paper's GA does.
		for _, id := range HeuristicStrategies() {
			sp, _, err := testRegistry.Place(id, s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seeds = append(cfg.Seeds, sp)
		}
		res, err := GAContext(context.Background(), s, q, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost < ex.Cost {
			t.Fatalf("trial %d: GA cost %d below exact optimum %d — cost model bug", trial, res.Cost, ex.Cost)
		}
		if res.Cost != ex.Cost {
			t.Errorf("trial %d: GA cost %d != optimum %d (q=%d, n=%d)", trial, res.Cost, ex.Cost, q, n)
		}
		if err := res.Best.Validate(s, 0); err != nil {
			t.Fatalf("trial %d: GA produced invalid placement: %v", trial, err)
		}
	}
}

func TestGABestNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randSeq(rng, 12, 120)
	res, err := GAContext(context.Background(), s, 4, quickGA(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i] > res.History[i-1] {
			t.Fatalf("best cost worsened at generation %d: %v", i, res.History[i-1:i+1])
		}
	}
	if res.Evaluations <= 0 {
		t.Error("no evaluations recorded")
	}
}

func TestGASeedsRespected(t *testing.T) {
	s := trace.NewSequence(0, 1, 0, 1, 2, 2)
	seed := &Placement{DBC: [][]int{{0, 1}, {2}}}
	seedCost, _ := ShiftCost(s, seed)
	cfg := quickGA(1)
	cfg.Seeds = []*Placement{seed}
	res, err := GAContext(context.Background(), s, 2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > seedCost {
		t.Errorf("GA (%d) worse than its own seed (%d)", res.Cost, seedCost)
	}
	// Mismatched seed width must be rejected.
	cfg.Seeds = []*Placement{NewEmpty(3)}
	if _, err := GAContext(context.Background(), s, 2, cfg); err == nil {
		t.Error("seed with wrong DBC count accepted")
	}
	// So must a seed that leaves an accessed variable unplaced or places
	// one twice: the operators move variables by their lookup entries.
	for _, bad := range []*Placement{{DBC: [][]int{{0, 1}, {}}}, {DBC: [][]int{{0, 1}, {2, 1}}}} {
		cfg.Seeds = []*Placement{bad}
		if _, err := GAContext(context.Background(), s, 2, cfg); err == nil {
			t.Errorf("invalid seed %v accepted", bad)
		}
	}
}

func TestGAEmptySequence(t *testing.T) {
	s := &trace.Sequence{}
	res, err := GAContext(context.Background(), s, 2, quickGA(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 0 {
		t.Errorf("empty sequence cost = %d", res.Cost)
	}
}

func TestGAInvalidConfig(t *testing.T) {
	s := trace.NewSequence(0, 1)
	if _, err := GAContext(context.Background(), s, 0, quickGA(1)); err == nil {
		t.Error("q=0 accepted")
	}
	bad := quickGA(1)
	bad.Mu = 0
	if _, err := GAContext(context.Background(), s, 2, bad); err == nil {
		t.Error("Mu=0 accepted")
	}
}

func TestGADeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randSeq(rng, 10, 80)
	r1, err := GAContext(context.Background(), s, 3, quickGA(123))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := GAContext(context.Background(), s, 3, quickGA(123))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cost != r2.Cost || !r1.Best.Equal(r2.Best) {
		t.Error("GA not deterministic for a fixed seed")
	}
	r3, err := GAContext(context.Background(), s, 3, quickGA(124))
	if err != nil {
		t.Fatal(err)
	}
	_ = r3 // different seed may or may not differ; only determinism is required
}

// checkCrossover crosses the priced parents p1 and p2 and verifies the
// children: each is a valid genome within capacity, places every
// variable of vars into one of the DBCs its parents gave it (without a
// capacity, the two children swap the same variables), and prices to
// the replay oracle's per-DBC costs (a child inherits the costs of the
// DBCs no move touched). The parents must come out untouched. It
// reports whether either child differs from its parent.
func checkCrossover(t *testing.T, r *gaRun, s *trace.Sequence, vars []int, p1, p2 *genome, capacity int) bool {
	t.Helper()
	before1, before2 := p1.Clone(), p2.Clone()
	c1, c2 := r.crossover(p1, p2)
	parents, changed := [2]*genome{p1, p2}, false
	for i, c := range []*genome{c1, c2} {
		if err := checkGenome(s, c, capacity); err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
		if c.NumPlaced() != len(vars) {
			t.Fatalf("child %d places %d vars, want %d", i, c.NumPlaced(), len(vars))
		}
		for _, v := range vars {
			if d := c.lookup.DBCOf[v]; d != p1.lookup.DBCOf[v] && d != p2.lookup.DBCOf[v] {
				t.Fatalf("child %d put var %d in DBC %d, parents had %d and %d",
					i, v, d, p1.lookup.DBCOf[v], p2.lookup.DBCOf[v])
			}
		}
		changed = changed || !c.Equal(&parents[i].Placement)
		r.fit[0].price(c)
		if err := checkPriced(s, c, nil); err != nil {
			t.Fatalf("child %d: %v", i, err)
		}
	}
	if capacity <= 0 {
		// Without a capacity every move goes through, so the children
		// trade the DBCs of exactly the same variables.
		for _, v := range vars {
			if (c1.lookup.DBCOf[v] == p1.lookup.DBCOf[v]) != (c2.lookup.DBCOf[v] == p2.lookup.DBCOf[v]) {
				t.Fatalf("var %d: only one child took the other parent's DBC (parents %d, %d; children %d, %d)",
					v, p1.lookup.DBCOf[v], p2.lookup.DBCOf[v], c1.lookup.DBCOf[v], c2.lookup.DBCOf[v])
			}
		}
	}
	if !p1.Equal(before1) || !p2.Equal(before2) {
		t.Fatal("crossover mutated a parent")
	}
	for _, p := range []*genome{p1, p2} {
		if err := checkGenome(s, p, capacity); err != nil {
			t.Fatalf("parent after crossover: %v", err)
		}
		if err := checkPriced(s, p, nil); err != nil {
			t.Fatalf("parent after crossover: %v", err)
		}
	}
	return changed
}

// Property: crossover children are valid genomes covering exactly the
// parents' variable set, priced exactly from their inherited costs, and
// the parents stay untouched.
func TestCrossoverPreservesValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	changed := 0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(10)
		s := randSeq(rng, n, 20)
		a := trace.Analyze(s)
		vars := a.ByFirstUse()
		q := 2 + rng.Intn(3)
		r := testGARun(t, s, q, quickGA(int64(trial)))
		p1 := pricedGenome(t, r, randomPlacement(rng, vars, q, 0))
		p2 := pricedGenome(t, r, randomPlacement(rng, vars, q, 0))
		if checkCrossover(t, r, s, vars, p1, p2, 0) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no crossover moved a variable")
	}
}

// Property: every mutation operator keeps the genome valid, and pricing
// afterwards matches the replay oracle per DBC.
func TestMutationsPreserveValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(10)
		s := randSeq(rng, n, 15)
		q := 1 + rng.Intn(4)
		cfg := quickGA(int64(trial))
		cfg.ImproveWeight = 2 // exercise the memetic operator too
		r := testGARun(t, s, q, cfg)
		g := r.child(r.pop[trial%len(r.pop)])
		r.mutate(g)
		if err := checkGenome(s, g, 0); err != nil {
			t.Fatalf("trial %d: mutation broke genome: %v", trial, err)
		}
		r.fit[0].price(g)
		if err := checkPriced(s, g, nil); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// Property: mutateMove respects capacity limits.
func TestMutateMoveRespectsCapacity(t *testing.T) {
	s := trace.NewSequence(0, 1, 2, 3)
	cfg := quickGA(4)
	cfg.Capacity = 2
	r := testGARun(t, s, 2, cfg)
	for trial := 0; trial < 50; trial++ {
		g := r.child(pricedGenome(t, r, &Placement{DBC: [][]int{{0, 1}, {2, 3}}}))
		r.mutateMove(g)
		if err := checkGenome(s, g, cfg.Capacity); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestRandomPlacementLookupConsistency pins the fused generator: the
// maintained lookup must equal a from-scratch inversion of the
// generated placement, and the PRNG stream must match randomPlacement's
// exactly (same seed, same placements).
func TestRandomPlacementLookupConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		numVars := 1 + rng.Intn(20)
		s := randSeq(rng, numVars, 40)
		a := trace.Analyze(s)
		vars := a.ByFirstUse()
		q := 1 + rng.Intn(4)
		capacity := 0
		if rng.Intn(3) == 0 {
			capacity = 1 + (len(vars)+q-1)/q
		}
		seed := rng.Int63()

		ref := rand.New(rand.NewSource(seed))
		fused := rand.New(rand.NewSource(seed))
		p := NewEmpty(q)
		lookup := &Lookup{DBCOf: make([]int, s.NumVars()), Offset: make([]int, s.NumVars())}
		for v := range lookup.DBCOf {
			lookup.DBCOf[v] = -1
			lookup.Offset[v] = -1
		}
		for it := 0; it < 5; it++ {
			want := randomPlacement(ref, vars, q, capacity)
			randomPlacementLookup(p, lookup, fused, vars, capacity)
			if !p.Equal(want) {
				t.Fatalf("trial %d it %d: fused placement %v, reference %v", trial, it, p, want)
			}
			wl, err := want.BuildLookup(s.NumVars())
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vars {
				if lookup.DBCOf[v] != wl.DBCOf[v] || lookup.Offset[v] != wl.Offset[v] {
					t.Fatalf("trial %d it %d: lookup for var %d = (%d,%d), want (%d,%d)",
						trial, it, v, lookup.DBCOf[v], lookup.Offset[v], wl.DBCOf[v], wl.Offset[v])
				}
			}
		}
	}
}

func TestRandomWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := randSeq(rng, 8, 60)
	p, c, err := RandomWalk(s, 2, Options{RW: RWConfig{Iterations: 500, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s, 0); err != nil {
		t.Fatalf("invalid RW placement: %v", err)
	}
	got, _ := ShiftCost(s, p)
	if got != c {
		t.Errorf("reported cost %d != recomputed %d", c, got)
	}
	// More iterations never hurt (same seed prefix property does not hold
	// exactly, but best-of-N is monotone in N for a fixed stream).
	_, c2, err := RandomWalk(s, 2, Options{RW: RWConfig{Iterations: 2000, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if c2 > c {
		t.Errorf("RW with more iterations got worse: %d > %d", c2, c)
	}
	if _, _, err := RandomWalk(s, 0, Options{RW: RWConfig{Iterations: 5}}); err == nil {
		t.Error("q=0 accepted")
	}
	if _, _, err := RandomWalk(s, 2, Options{RW: RWConfig{Iterations: -1}}); err == nil {
		t.Error("negative iterations accepted")
	}
}

// BenchmarkRandomWalkSuite runs RW through Registry.Place on the 205
// OffsetStone suite sequences at four DBCs, 1,000 iterations and seed
// 1, and reports the total shifts. 1,000 iterations keep one sweep
// under a second, short enough for CI's bench job.
func BenchmarkRandomWalkSuite(b *testing.B) {
	reg, err := NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	var seqs []*trace.Sequence
	for _, bench := range offsetstone.Suite() {
		seqs = append(seqs, bench.Sequences...)
	}
	opts := Options{RW: RWConfig{Iterations: 1000, Seed: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	var shifts int64
	for i := 0; i < b.N; i++ {
		shifts = 0
		for _, s := range seqs {
			_, c, err := reg.Place(StrategyRW, s, 4, opts)
			if err != nil {
				b.Fatal(err)
			}
			shifts += c
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(shifts), "shifts")
}

// BenchmarkGASuite runs the GA through Registry.Place on the 109
// OffsetStone suite sequences of at least 200 accesses, the set
// perfbench's search workload runs, at four DBCs with heuristic seeds
// and DefaultGAConfig cut to 50 generations, and reports the total
// shifts. 50 generations keep one sweep near a second, short enough for
// CI's bench job.
func BenchmarkGASuite(b *testing.B) {
	reg, err := NewRegistry()
	if err != nil {
		b.Fatal(err)
	}
	var seqs []*trace.Sequence
	for _, bench := range offsetstone.Suite() {
		for _, s := range bench.Sequences {
			if s.Len() >= 200 {
				seqs = append(seqs, s)
			}
		}
	}
	cfg := DefaultGAConfig()
	cfg.Generations = 50
	opts := Options{GA: cfg}
	b.ReportAllocs()
	b.ResetTimer()
	var shifts int64
	for i := 0; i < b.N; i++ {
		shifts = 0
		for _, s := range seqs {
			_, c, err := reg.Place(StrategyGA, s, 4, opts)
			if err != nil {
				b.Fatal(err)
			}
			shifts += c
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(shifts), "shifts")
}

func TestExactMatchesBruteForceIntra(t *testing.T) {
	// IntraExact against explicit permutation enumeration on tiny inputs.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(4) // 2..5 vars
		s := randSeq(rng, n, 10+rng.Intn(20))
		a := trace.Analyze(s)
		vars := a.ByFirstUse()
		if len(vars) < 2 {
			continue
		}
		order, cost, err := IntraExact(vars, s)
		if err != nil {
			t.Fatal(err)
		}
		p := &Placement{DBC: [][]int{order}}
		check, _ := ShiftCost(s, p)
		if check != cost {
			t.Fatalf("trial %d: IntraExact reports %d but layout costs %d", trial, cost, check)
		}
		best := bruteForceBest(s, vars)
		if cost != best {
			t.Fatalf("trial %d: IntraExact %d != brute force %d", trial, cost, best)
		}
	}
}

func bruteForceBest(s *trace.Sequence, vars []int) int64 {
	best := int64(-1)
	perm := append([]int(nil), vars...)
	var walk func(k int)
	walk = func(k int) {
		if k == len(perm) {
			p := &Placement{DBC: [][]int{perm}}
			c, _ := ShiftCost(s, p)
			if best < 0 || c < best {
				best = c
			}
			return
		}
		for i := k; i < len(perm); i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return best
}

func TestExactGuards(t *testing.T) {
	s := randSeq(rand.New(rand.NewSource(1)), 20, 40)
	if _, err := Exact(s, 2, 0); err == nil {
		t.Error("oversized instance accepted")
	}
	if _, err := Exact(s, 0, 0); err == nil {
		t.Error("q=0 accepted")
	}
	empty := &trace.Sequence{}
	res, err := Exact(empty, 2, 0)
	if err != nil || res.Cost != 0 {
		t.Errorf("empty sequence: res=%+v err=%v", res, err)
	}
}

func TestExactCapacity(t *testing.T) {
	// 4 variables, q=2, capacity 2: both DBCs must hold exactly 2.
	s := trace.NewSequence(0, 1, 2, 3, 0, 1, 2, 3)
	res, err := Exact(s, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(s, 2); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
	// Infeasible: 4 variables into 1 DBC of capacity 2.
	if _, err := Exact(s, 1, 2); err == nil {
		t.Error("infeasible instance accepted")
	}
}

// Heuristics must never beat the exact optimum (sanity of the optimum),
// and DMA must match it on perfectly phased traces.
func TestHeuristicsVsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(5)
		s := randSeq(rng, n, 12+rng.Intn(24))
		q := 1 + rng.Intn(2)
		ex, err := Exact(s, q, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range HeuristicStrategies() {
			_, c, err := testRegistry.Place(id, s, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if c < ex.Cost {
				t.Fatalf("%s cost %d beats exact optimum %d — bug in Exact", id, c, ex.Cost)
			}
		}
	}
	// Perfectly phased: with unlimited capacity Algorithm 1 stores all l
	// disjoint variables in one DBC in access order, which costs exactly
	// l-1 shifts (here 3); the 2-DBC optimum can split the set and reach
	// 2, so DMA must land in [optimum, l-1].
	s := trace.NewSequence(0, 0, 0, 1, 1, 2, 2, 2, 3, 3)
	ex, _ := Exact(s, 2, 0)
	p, c, err := testRegistry.Place(StrategyDMAOFU, s, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c < ex.Cost || c > 3 {
		t.Errorf("DMA-OFU cost %d outside [optimum %d, l-1 = 3] on phased trace (placement %v)", c, ex.Cost, p)
	}
}

func TestPlaceUnknownStrategy(t *testing.T) {
	s := trace.NewSequence(0, 1)
	if _, _, err := testRegistry.Place("nope", s, 2, Options{}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestCanonicalOrdering(t *testing.T) {
	p := &Placement{DBC: [][]int{{}, {5, 2}, {1, 3}}}
	c := p.Canonical()
	if c.DBC[0][0] != 1 || c.DBC[1][0] != 5 {
		t.Errorf("canonical = %v", c.DBC)
	}
	if len(c.DBC[2]) != 0 {
		t.Error("empty DBC should sort last")
	}
}

// Parallel fitness evaluation must be bit-identical to sequential for the
// same seed (search decisions stay on one PRNG stream), at every worker
// count and under both the single-port and the multi-port objective.
func TestGAParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	s := randSeq(rng, 14, 150)
	pm, err := NewPortModel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, port := range []*PortModel{nil, pm} {
		cfg := quickGA(42)
		cfg.Port = port
		r1, err := GAContext(context.Background(), s, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
			par := cfg
			par.Workers = workers
			r2, err := GAContext(context.Background(), s, 4, par)
			if err != nil {
				t.Fatal(err)
			}
			if r1.Cost != r2.Cost || !r1.Best.Equal(r2.Best) || !slices.Equal(r1.History, r2.History) {
				t.Errorf("ports=%v workers=%d: parallel GA diverged: %d vs %d", port != nil, workers, r1.Cost, r2.Cost)
			}
			if r1.Evaluations != r2.Evaluations {
				t.Errorf("ports=%v workers=%d: evaluation counts diverged: %d vs %d", port != nil, workers, r1.Evaluations, r2.Evaluations)
			}
		}
	}
}

// Property: capacity-aware crossover never overflows a DBC when both
// parents respect the capacity, and keeps the genome consistent.
func TestCrossoverRespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	changed := 0
	for trial := 0; trial < 60; trial++ {
		n := 4 + rng.Intn(8)
		s := randSeq(rng, n, 20)
		a := trace.Analyze(s)
		vars := a.ByFirstUse()
		q := 2 + rng.Intn(3)
		capacity := (len(vars)+q-1)/q + 1
		cfg := quickGA(int64(trial))
		cfg.Capacity = capacity
		r := testGARun(t, s, q, cfg)
		p1 := pricedGenome(t, r, randomPlacement(rng, vars, q, capacity))
		p2 := pricedGenome(t, r, randomPlacement(rng, vars, q, capacity))
		if checkCrossover(t, r, s, vars, p1, p2, capacity) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("no crossover moved a variable")
	}
}

// GA with a capacity limit produces capacity-respecting placements when
// its seeds do.
func TestGARespectsCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := randSeq(rng, 12, 100)
	cfg := quickGA(3)
	cfg.Capacity = 4
	res, err := GAContext(context.Background(), s, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Best.Validate(s, cfg.Capacity); err != nil {
		t.Fatalf("GA violated capacity: %v", err)
	}
}
