package placement

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/trace"
)

// randPortPlacement scatters the accessed variables of s over q DBCs
// with shuffled offsets.
func randPortPlacement(rng *rand.Rand, s *trace.Sequence, q int) *Placement {
	a := trace.Analyze(s)
	return randomPlacement(rng, a.ByFirstUse(), q, 0)
}

// TestPortCostMatchesEngine pins the allocation-free multi-port
// evaluator bit-identical to the EngineCost replay oracle across port
// counts, including tracks grown past the layout's domain count.
func TestPortCostMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		s := randSeq(rng, 2+rng.Intn(20), 5+rng.Intn(200))
		q := 1 + rng.Intn(4)
		p := randPortPlacement(rng, s, q)
		maxLen := p.MaxDBCLen()
		for ports := 1; ports <= 5; ports++ {
			// Layout domains at least the occupancy: the plain oracle.
			domains := maxLen + rng.Intn(8)
			if domains < ports {
				domains = ports
			}
			m, err := NewPortModel(domains, ports)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PortCost(s, p, m)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EngineCost(s, p, domains, ports)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d ports %d domains %d: PortCost %d, EngineCost %d", trial, ports, domains, got, want)
			}

			// Grown track: layout derives from a shorter geometry while
			// the occupancy exceeds it — the engines keep the layout.
			short := 1 + rng.Intn(maxLen+2)
			if short < ports {
				short = ports
			}
			ms, err := NewPortModel(short, ports)
			if err != nil {
				t.Fatal(err)
			}
			got, err = PortCost(s, p, ms)
			if err != nil {
				t.Fatal(err)
			}
			grown := short
			if maxLen > grown {
				grown = maxLen
			}
			want, err = EngineCostAt(s, p, grown, ms.pos)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d ports %d short %d: PortCost %d, EngineCostAt %d", trial, ports, short, got, want)
			}
		}
	}
}

// TestPortCostSinglePortIdentity pins the ports == 1 degenerate case
// bit-identical to every single-port evaluator: the replay oracle, the
// O(nnz) kernel, and the engine replay.
func TestPortCostSinglePortIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		s := randSeq(rng, 2+rng.Intn(16), 5+rng.Intn(160))
		q := 1 + rng.Intn(4)
		p := randPortPlacement(rng, s, q)
		domains := p.MaxDBCLen() + rng.Intn(4) + 1
		m, err := NewPortModel(domains, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PortCost(s, p, m)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := ShiftCost(s, p)
		if err != nil {
			t.Fatal(err)
		}
		kernel, err := NewCostKernel(s).Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != replay || got != kernel {
			t.Fatalf("trial %d: PortCost %d, ShiftCost %d, kernel %d", trial, got, replay, kernel)
		}
	}
}

// TestPortCostBreakdown checks the per-DBC attribution sums to the full
// multi-port cost, matches the single-port breakdown at one port, and
// rejects unplaced accessed variables.
func TestPortCostBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 30; trial++ {
		s := randSeq(rng, 2+rng.Intn(12), 5+rng.Intn(120))
		q := 1 + rng.Intn(4)
		p := randPortPlacement(rng, s, q)
		domains := p.MaxDBCLen() + 3
		for ports := 1; ports <= 3; ports++ {
			m, err := NewPortModel(domains, ports)
			if err != nil {
				t.Fatal(err)
			}
			b, err := PortCostBreakdown(s, p, m)
			if err != nil {
				t.Fatal(err)
			}
			total, err := PortCost(s, p, m)
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, c := range b.PerDBC {
				sum += c
			}
			if sum != b.Total || b.Total != total {
				t.Fatalf("trial %d ports %d: per-DBC sum %d, Total %d, PortCost %d", trial, ports, sum, b.Total, total)
			}
			if ports == 1 {
				ref, err := ShiftCostBreakdown(s, p)
				if err != nil {
					t.Fatal(err)
				}
				for d := range ref.PerDBC {
					if ref.PerDBC[d] != b.PerDBC[d] {
						t.Fatalf("trial %d DBC %d: single-port breakdown diverges", trial, d)
					}
				}
			}
		}
	}

	s, err := trace.NewNamedSequence("a", "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewPortModel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	missing := &Placement{DBC: [][]int{{0}}} // b unplaced
	if _, err := PortCostBreakdown(s, missing, m); err == nil {
		t.Error("unplaced accessed variable not rejected")
	}
}

// portEvalOracle prices the order of one DBC by building a single-DBC
// placement restricted to its members and replaying it.
func portEvalOracle(t *testing.T, s *trace.Sequence, order []int, m *PortModel) int64 {
	t.Helper()
	member := membership(order, s.NumVars())
	r := s.Restrict(func(v int) bool { return v < len(member) && member[v] })
	c, err := PortCost(r, &Placement{DBC: [][]int{order}}, m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPortDeltaEvaluatorParity checks the move evaluator against the
// full restricted replay after every applied move, that predicted
// deltas match realized changes, and that the single-port degenerate
// case agrees with DeltaEvaluator.
func TestPortDeltaEvaluatorParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		universe := 4 + rng.Intn(16)
		s := randSeq(rng, universe, 10+rng.Intn(150))
		k := 3 + rng.Intn(universe-3+1)
		order := rng.Perm(universe)[:k]
		domains := universe + rng.Intn(4)
		ports := 1 + rng.Intn(3)
		m, err := NewPortModel(domains, ports)
		if err != nil {
			t.Fatal(err)
		}
		e := NewPortDeltaEvaluator(s, order, m)
		if got, want := e.Cost(), portEvalOracle(t, s, e.CurrentOrder(), m); got != want {
			t.Fatalf("trial %d setup: evaluator %d, oracle %d", trial, got, want)
		}
		if ports == 1 {
			ref := NewDeltaEvaluator(s, order)
			if ref.cost != e.Cost() || ref.Accesses() != e.Accesses() {
				t.Fatalf("trial %d: single-port (cost %d, acc %d) vs port evaluator (cost %d, acc %d)",
					trial, ref.cost, ref.Accesses(), e.Cost(), e.Accesses())
			}
		}
		for mv := 0; mv < 12; mv++ {
			i, j := rng.Intn(k), rng.Intn(k)
			if i > j {
				i, j = j, i
			}
			before := e.Cost()
			var predicted int64
			if rng.Intn(2) == 0 {
				predicted = e.SwapDelta(i, j)
				e.Swap(i, j)
			} else {
				predicted = e.ReverseDelta(i, j)
				e.Reverse(i, j)
			}
			if got := e.Cost() - before; got != predicted {
				t.Fatalf("trial %d move %d [%d,%d]: predicted %d, applied %d", trial, mv, i, j, predicted, got)
			}
			if got, want := e.Cost(), portEvalOracle(t, s, e.CurrentOrder(), m); got != want {
				t.Fatalf("trial %d move %d: evaluator %d, oracle %d", trial, mv, got, want)
			}
		}
	}
}

// TestTwoOptPortNeverWorsens checks the port polish only improves or
// keeps an order's cost under the port objective.
func TestTwoOptPortNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 25; trial++ {
		s := randSeq(rng, 4+rng.Intn(12), 20+rng.Intn(120))
		order := rng.Perm(s.NumVars())
		m, err := NewPortModel(s.NumVars()+2, 1+rng.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		before := portEvalOracle(t, s, order, m)
		polished := order
		if out := polish(NewPortDeltaEvaluator(s, order, m), maxTwoOptPasses); out != nil {
			polished = out
		}
		after := portEvalOracle(t, s, polished, m)
		if after > before {
			t.Fatalf("trial %d: port polish worsened %d -> %d", trial, before, after)
		}
	}
}

// TestDMATwoOptPortReoptNeverWorse pins the monotonicity the ports
// sweep relies on: the port-aware DMA-2opt placement never scores
// worse under the port model than the single-port DMA-2opt placement
// replayed on the same device.
func TestDMATwoOptPortReoptNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		s := randSeq(rng, 5+rng.Intn(20), 30+rng.Intn(200))
		q := 1 + rng.Intn(4)
		domains := s.NumVars() + 4
		for ports := 2; ports <= 4; ports++ {
			m, err := NewPortModel(domains, ports)
			if err != nil {
				t.Fatal(err)
			}
			single, _, err := PlaceDMATwoOpt(s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := PortCost(s, single, m)
			if err != nil {
				t.Fatal(err)
			}
			multi, reopt, err := PlaceDMATwoOpt(s, q, Options{Ports: ports, PortDomains: domains})
			if err != nil {
				t.Fatal(err)
			}
			check, err := PortCost(s, multi, m)
			if err != nil {
				t.Fatal(err)
			}
			if reopt != check {
				t.Fatalf("trial %d ports %d: reported %d, port model %d", trial, ports, reopt, check)
			}
			if reopt > replayed {
				t.Fatalf("trial %d ports %d: re-optimized %d worse than replayed %d", trial, ports, reopt, replayed)
			}
		}
	}
}

// TestPortAwareSearchStrategies checks GA and RW honor Options.Ports:
// deterministic for a fixed seed, reported costs exact under the port
// model, and parallel GA fitness identical to serial.
func TestPortAwareSearchStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	s := randSeq(rng, 14, 240)
	opts := Options{Ports: 3, PortDomains: 20}
	opts.GA = GAConfig{Mu: 10, Lambda: 10, Generations: 8, TournamentK: 3,
		MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3,
		ImproveWeight: 3, Seed: 5}
	opts.RW = RWConfig{Iterations: 150, Seed: 5}
	m, err := NewPortModel(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []StrategyID{StrategyGA, StrategyRW, StrategyGAMemetic} {
		p1, c1, err := testRegistry.Place(id, s, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		p2, c2, err := testRegistry.Place(id, s, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 || !p1.Equal(p2) {
			t.Fatalf("%s: not deterministic under ports (%d vs %d)", id, c1, c2)
		}
		exact, err := PortCost(s, p1, m)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != exact {
			t.Fatalf("%s: reported %d, port model %d", id, c1, exact)
		}
	}

	par := opts
	par.GA.Workers = 4
	pp, cp, err := testRegistry.Place(StrategyGA, s, 3, par)
	if err != nil {
		t.Fatal(err)
	}
	ps, cs, err := testRegistry.Place(StrategyGA, s, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cp != cs || !pp.Equal(ps) {
		t.Fatalf("parallel GA diverged under ports: %d vs %d", cp, cs)
	}
}

// TestPortModelResolution checks Options.PortModelFor: single-port
// passthrough, the iso-capacity default rule, explicit domains, and
// validation errors.
func TestPortModelResolution(t *testing.T) {
	if m, err := (Options{}).PortModelFor(4); err != nil || m != nil {
		t.Fatalf("single-port options resolved to %v, %v", m, err)
	}
	if m, err := (Options{Ports: 1}).PortModelFor(4); err != nil || m != nil {
		t.Fatalf("Ports=1 resolved to %v, %v", m, err)
	}
	m, err := (Options{Ports: 2}).PortModelFor(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.pos; !slices.Equal(got, []int{0, 128}) { // Table I: 4 DBCs -> 256 domains
		t.Fatalf("iso rule gave positions %v, want [0 128]", got)
	}
	m, err = (Options{Ports: 3, PortDomains: 30}).PortModelFor(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.pos; !slices.Equal(got, []int{0, 10, 20}) {
		t.Fatalf("explicit domains ignored: positions %v, want [0 10 20]", got)
	}
	if _, err := (Options{Ports: 5, PortDomains: 3}).PortModelFor(4); err == nil {
		t.Error("ports > domains accepted")
	}
	if _, err := NewPortModel(0, 1); err == nil {
		t.Error("zero domains accepted")
	}
}

// BenchmarkPortCost measures the steady-state multi-port full
// evaluation; the hot loop must not allocate (the alloc gate in CI
// ratchets this to zero).
func BenchmarkPortCost(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := randSeq(rng, 96, 12000)
	p := randPortPlacement(rng, s, 8)
	m, err := NewPortModel(256, 4)
	if err != nil {
		b.Fatal(err)
	}
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		b.Fatal(err)
	}
	track := make([]int, len(p.DBC))
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		setCold(track)
		c, _ := m.total(s, l, track, math.MaxInt64)
		sink += c
	}
	_ = sink
}

// BenchmarkPortCostPooled is the public entry point with pooled
// scratch: the per-call cost of PortCost itself (lookup construction
// dominates; the replay adds no allocations).
func BenchmarkPortCostPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := randSeq(rng, 96, 12000)
	p := randPortPlacement(rng, s, 8)
	m, err := NewPortModel(256, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PortCost(s, p, m); err != nil {
			b.Fatal(err)
		}
	}
}
