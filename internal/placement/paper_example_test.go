package placement

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

// The worked example of Fig. 3 of the paper: variable set V = {a..i}
// (declared alphabetically), access sequence reconstructed to match every
// published statistic (see internal/trace tests).
func fig3Sequence(t testing.TB) *trace.Sequence {
	t.Helper()
	universe := strings.Split("a b c d e f g h i", " ")
	tokens := strings.Fields("a b a b c a c a d d a i e f e f g e g h g i h i")
	s, err := trace.NewNamedSequenceWithUniverse(universe, tokens...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func varID(t testing.TB, s *trace.Sequence, name string) int {
	t.Helper()
	for i, n := range s.Names {
		if n == name {
			return i
		}
	}
	t.Fatalf("no variable %q", name)
	return -1
}

func names(s *trace.Sequence, vars []int) string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = s.Name(v)
	}
	return strings.Join(out, " ")
}

// TestFig3AFDPlacement reproduces Fig. 3-(c): AFD assigns a, g, b, d, h to
// DBC0 and e, i, c, f to DBC1, for a total shift cost of 24 + 15 = 39.
func TestFig3AFDPlacement(t *testing.T) {
	s := fig3Sequence(t)
	a := trace.Analyze(s)
	p, err := AFD(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(s, p.DBC[0]); got != "a g b d h" {
		t.Errorf("DBC0 = %q, want %q", got, "a g b d h")
	}
	if got := names(s, p.DBC[1]); got != "e i c f" {
		t.Errorf("DBC1 = %q, want %q", got, "e i c f")
	}
	b, err := ShiftCostBreakdown(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if b.PerDBC[0] != 24 {
		t.Errorf("DBC0 shifts = %d, want 24", b.PerDBC[0])
	}
	if b.PerDBC[1] != 15 {
		t.Errorf("DBC1 shifts = %d, want 15", b.PerDBC[1])
	}
	if b.Total != 39 {
		t.Errorf("total shifts = %d, want 39", b.Total)
	}
}

// TestFig3DMADisjointSet reproduces section III-B: the heuristic selects
// the disjoint combination b, c, d, e, h (frequency sum 11) and leaves
// a, f, g, i for the remaining DBCs.
func TestFig3DMADisjointSet(t *testing.T) {
	s := fig3Sequence(t)
	a := trace.Analyze(s)
	r, err := DMA(a, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(s, r.Disjoint); got != "b c d e h" {
		t.Errorf("disjoint set = %q, want %q", got, "b c d e h")
	}
	if r.DisjointDBCs != 1 {
		t.Errorf("K = %d, want 1", r.DisjointDBCs)
	}
	// DBC0 holds the disjoint variables in access order.
	if got := names(s, r.Placement.DBC[0]); got != "b c d e h" {
		t.Errorf("DBC0 = %q, want access order %q", got, "b c d e h")
	}
	// DBC0's cost: 4 shifts (paper Fig. 3-(d)); at most one shift per
	// disjoint-variable transition.
	b, err := ShiftCostBreakdown(s, r.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if b.PerDBC[0] != 4 {
		t.Errorf("disjoint DBC shifts = %d, want 4", b.PerDBC[0])
	}
}

// TestFig3DMATotal checks the headline of the worked example: the
// sequence-aware placement costs 11 shifts total versus AFD's 39
// (a 3.54x improvement). The figure's DBC1 layout gives 7 shifts; any
// ordering of the leftover variables achieving <= 7 keeps the total <= 11.
func TestFig3DMATotal(t *testing.T) {
	s := fig3Sequence(t)
	a := trace.Analyze(s)
	r, err := DMA(a, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ShiftCost(s, r.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if c > 11 {
		t.Errorf("DMA total = %d, want <= 11 (paper: 11)", c)
	}
	// Leftovers are exactly {a, f, g, i}.
	got := map[string]bool{}
	for _, v := range r.Placement.DBC[1] {
		got[s.Name(v)] = true
	}
	for _, want := range []string{"a", "f", "g", "i"} {
		if !got[want] {
			t.Errorf("DBC1 missing %q; got %v", want, r.Placement.DBC[1])
		}
	}
	if len(got) != 4 {
		t.Errorf("DBC1 holds %d variables, want 4", len(got))
	}
}

// TestFig3DisjointSetShiftBound verifies the structural property the
// heuristic exploits: l disjoint variables stored in access order incur at
// most l-1 shifts.
func TestFig3DisjointSetShiftBound(t *testing.T) {
	s := fig3Sequence(t)
	a := trace.Analyze(s)
	r, err := DMA(a, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ShiftCostBreakdown(s, r.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if l := len(r.Disjoint); b.PerDBC[0] > int64(l-1) {
		t.Errorf("disjoint DBC shifts %d exceed l-1 = %d", b.PerDBC[0], l-1)
	}
}

// TestFig3Strategies runs the full named strategies on the example; every
// DMA variant must beat AFD-OFU, and GA must be at least as good as the
// best heuristic.
func TestFig3Strategies(t *testing.T) {
	s := fig3Sequence(t)
	costs := map[StrategyID]int64{}
	opts := Options{
		GA: GAConfig{Mu: 30, Lambda: 30, Generations: 40, TournamentK: 4,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 7},
		RW: RWConfig{Iterations: 2000, Seed: 7},
	}
	for _, id := range AllStrategies() {
		p, c, err := testRegistry.Place(id, s, 2, opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if err := p.Validate(s, 0); err != nil {
			t.Fatalf("%s produced invalid placement: %v", id, err)
		}
		costs[id] = c
	}
	for _, dma := range []StrategyID{StrategyDMAOFU, StrategyDMAChen, StrategyDMASR} {
		if costs[dma] >= costs[StrategyAFDOFU] {
			t.Errorf("%s (%d) should beat AFD-OFU (%d)", dma, costs[dma], costs[StrategyAFDOFU])
		}
	}
	best := costs[StrategyDMAOFU]
	for _, id := range HeuristicStrategies() {
		if costs[id] < best {
			best = costs[id]
		}
	}
	if costs[StrategyGA] > best {
		t.Errorf("GA (%d) should be at least as good as best heuristic (%d)", costs[StrategyGA], best)
	}
	// And GA must match the true optimum on this small instance.
	ex, err := Exact(s, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if costs[StrategyGA] != ex.Cost {
		t.Errorf("GA cost %d != exact optimum %d", costs[StrategyGA], ex.Cost)
	}
	if ex.Cost > 11 {
		t.Errorf("exact optimum %d should be <= 11 (paper found 11 by hand)", ex.Cost)
	}
}
