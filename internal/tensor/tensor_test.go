package tensor

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

// Variables returns the number of distinct memory objects the trace
// touches: one per element of A, B and C.
func (c Contraction) Variables() int { return c.I*c.K + c.K*c.J + c.I*c.J }

// testRegistry resolves the tests' strategy names: a fresh registry
// seeded with the builtins.
var testRegistry = func() *placement.Registry {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}()

func TestTraceShape(t *testing.T) {
	c := Contraction{I: 2, J: 3, K: 4, Order: IJK, Accumulate: true}
	s, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	// Each of the I*J*K updates touches A, B, C(read), C(write).
	wantLen := 2 * 3 * 4 * 4
	if s.Len() != wantLen {
		t.Errorf("trace length = %d, want %d", s.Len(), wantLen)
	}
	if s.NumVars() != c.Variables() {
		t.Errorf("variables = %d, want %d", s.NumVars(), c.Variables())
	}
	// One write per update.
	if s.Writes() != 2*3*4 {
		t.Errorf("writes = %d, want %d", s.Writes(), 2*3*4)
	}
}

func TestNoAccumulateSkipsReadOfC(t *testing.T) {
	c := Contraction{I: 2, J: 2, K: 2, Accumulate: false}
	s, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2*2*2*3 {
		t.Errorf("length = %d, want %d", s.Len(), 2*2*2*3)
	}
}

func TestValidate(t *testing.T) {
	bad := []Contraction{
		{I: 0, J: 1, K: 1},
		{I: 1, J: -1, K: 1},
		{I: 1, J: 1, K: 1, Order: "kji"},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
		if _, err := c.Trace(); err == nil {
			t.Errorf("case %d traced: %+v", i, c)
		}
	}
}

func TestLoopOrdersVisitSameWork(t *testing.T) {
	// All orders perform the same updates: identical per-variable access
	// frequencies, different orderings.
	var freqs [][]int
	for _, order := range []LoopOrder{IJK, IKJ, JKI} {
		c := Contraction{I: 3, J: 3, K: 3, Order: order, Accumulate: true}
		s, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		a := trace.Analyze(s)
		// Index frequencies by name for cross-order comparison.
		byName := make(map[string]int)
		for v, f := range a.Freq {
			byName[s.Name(v)] = f
		}
		flat := make([]int, 0, len(byName))
		for _, name := range sortedKeys(byName) {
			flat = append(flat, byName[name])
		}
		freqs = append(freqs, flat)
	}
	for i := 1; i < len(freqs); i++ {
		if len(freqs[i]) != len(freqs[0]) {
			t.Fatal("variable sets differ between orders")
		}
		for j := range freqs[i] {
			if freqs[i][j] != freqs[0][j] {
				t.Fatalf("order %d frequency mismatch at %d", i, j)
			}
		}
	}
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func TestLoopOrderAffectsShiftCost(t *testing.T) {
	// The LCTES observation: loop order changes reuse distance and thus
	// shift cost under the same placement strategy.
	costs := map[LoopOrder]int64{}
	for _, order := range []LoopOrder{IJK, IKJ, JKI} {
		c := Contraction{I: 4, J: 4, K: 4, Order: order, Accumulate: true}
		s, err := c.Trace()
		if err != nil {
			t.Fatal(err)
		}
		_, cost, err := testRegistry.Place(placement.StrategyDMASR, s, 4, placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		costs[order] = cost
	}
	distinct := map[int64]bool{}
	for _, c := range costs {
		distinct[c] = true
	}
	if len(distinct) < 2 {
		t.Errorf("all loop orders cost the same (%v); reuse structure lost", costs)
	}
}

func TestPlacementBeatsBaselineOnContraction(t *testing.T) {
	c := Contraction{I: 6, J: 6, K: 6, Order: IJK, Accumulate: true}
	s, err := c.Trace()
	if err != nil {
		t.Fatal(err)
	}
	_, afd, err := testRegistry.Place(placement.StrategyAFDOFU, s, 8, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, sr, err := testRegistry.Place(placement.StrategyDMASR, s, 8, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sr > afd {
		t.Errorf("DMA-SR (%d) lost to AFD-OFU (%d) on a contraction", sr, afd)
	}
}

func TestBenchmark(t *testing.T) {
	b, err := Benchmark()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sequences) != len(Suite()) {
		t.Errorf("sequences = %d, want %d", len(b.Sequences), len(Suite()))
	}
	for i, s := range b.Sequences {
		if err := s.Validate(); err != nil {
			t.Errorf("seq %d invalid: %v", i, err)
		}
	}
}
