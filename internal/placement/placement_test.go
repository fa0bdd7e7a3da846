package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func randSeq(rng *rand.Rand, numVars, length int) *trace.Sequence {
	vars := make([]int, length)
	for i := range vars {
		vars[i] = rng.Intn(numVars)
	}
	return trace.NewSequence(vars...)
}

func TestPlacementLookupAndValidate(t *testing.T) {
	s := trace.NewSequence(0, 1, 2, 3)
	p := &Placement{DBC: [][]int{{0, 2}, {1, 3}}}
	if err := p.Validate(s, 0); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}
	l, err := p.BuildLookup(4)
	if err != nil {
		t.Fatal(err)
	}
	if l.DBCOf[2] != 0 || l.Offset[2] != 1 {
		t.Errorf("lookup for var 2 = (%d,%d), want (0,1)", l.DBCOf[2], l.Offset[2])
	}
	// Duplicate placement.
	dup := &Placement{DBC: [][]int{{0, 1}, {1}}}
	if _, err := dup.BuildLookup(2); err == nil {
		t.Error("duplicate placement accepted")
	}
	// Unplaced accessed variable.
	missing := &Placement{DBC: [][]int{{0, 1}, {2}}}
	if err := missing.Validate(s, 0); err == nil {
		t.Error("missing variable accepted")
	}
	// Capacity violation.
	if err := p.Validate(s, 1); err == nil {
		t.Error("capacity violation accepted")
	}
}

func TestShiftCostBasics(t *testing.T) {
	// One DBC [0 1 2], sequence 0 2 0 1: costs 0(first) + 2 + 2 + 1 = 5.
	s := trace.NewSequence(0, 2, 0, 1)
	p := &Placement{DBC: [][]int{{0, 1, 2}}}
	c, err := ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if c != 5 {
		t.Errorf("cost = %d, want 5", c)
	}
	// Split across two DBCs: 0,2 in DBC0 at offsets 0,1; 1 alone. Costs:
	// 0(first), 1 (0->2), 1 (2->0), 0 (first in DBC1) = 2.
	p2 := &Placement{DBC: [][]int{{0, 2}, {1}}}
	c2, err := ShiftCost(s, p2)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 2 {
		t.Errorf("split cost = %d, want 2", c2)
	}
}

func TestShiftCostSelfAccessesFree(t *testing.T) {
	s := trace.NewSequence(1, 1, 1, 1)
	p := &Placement{DBC: [][]int{{0, 1}}}
	c, err := ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if c != 0 {
		t.Errorf("self-access cost = %d, want 0", c)
	}
}

// Property: ShiftCost equals EngineCost with one port, for random
// placements and sequences — the fast path and the device model agree.
func TestCostMatchesEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		s := randSeq(rng, n, 1+rng.Intn(60))
		q := 1 + rng.Intn(4)
		a := trace.Analyze(s)
		p := randomPlacement(rng, a.ByFirstUse(), q, 0)
		fast, err := ShiftCost(s, p)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := EngineCost(s, p, max(p.MaxDBCLen(), 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		if fast != slow {
			t.Fatalf("trial %d: ShiftCost %d != EngineCost %d (seq %v, placement %v)",
				trial, fast, slow, s, p)
		}
	}
}

// Property: with more ports the engine cost never exceeds the single-port
// cost.
func TestMultiPortNeverWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(10)
		s := randSeq(rng, n, 1+rng.Intn(50))
		a := trace.Analyze(s)
		p := randomPlacement(rng, a.ByFirstUse(), 2, 0)
		domains := max(p.MaxDBCLen(), 2)
		c1, err := EngineCost(s, p, domains, 1)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := EngineCost(s, p, domains, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c2 > c1 {
			t.Fatalf("2-port cost %d > 1-port cost %d", c2, c1)
		}
	}
}

func TestAFDRoundRobin(t *testing.T) {
	// Frequencies: v0 x4, v1 x3, v2 x2, v3 x1.
	s := trace.NewSequence(0, 0, 0, 0, 1, 1, 1, 2, 2, 3)
	a := trace.Analyze(s)
	p, err := AFD(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Round robin: 0->DBC0, 1->DBC1, 2->DBC0, 3->DBC1.
	if len(p.DBC[0]) != 2 || p.DBC[0][0] != 0 || p.DBC[0][1] != 2 {
		t.Errorf("DBC0 = %v, want [0 2]", p.DBC[0])
	}
	if len(p.DBC[1]) != 2 || p.DBC[1][0] != 1 || p.DBC[1][1] != 3 {
		t.Errorf("DBC1 = %v, want [1 3]", p.DBC[1])
	}
	if _, err := AFD(a, 0); err == nil {
		t.Error("q=0 accepted")
	}
}

func TestAFDSkipsUnaccessed(t *testing.T) {
	s := &trace.Sequence{Names: []string{"a", "b", "c"}}
	s.Append(0, false)
	s.Append(0, false)
	a := trace.Analyze(s)
	p, _ := AFD(a, 2)
	if p.NumPlaced() != 1 {
		t.Errorf("placed %d variables, want 1 (only accessed ones)", p.NumPlaced())
	}
}

func TestDMASingleDBC(t *testing.T) {
	// q=1 with both disjoint and non-disjoint variables must still place
	// everything in the single DBC.
	s := trace.NewSequence(0, 1, 0, 2, 2, 3, 3)
	a := trace.Analyze(s)
	r, err := DMA(a, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.Validate(s, 0); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if r.DisjointDBCs != 0 {
		t.Errorf("K = %d, want 0 for single shared DBC", r.DisjointDBCs)
	}
}

func TestDMAAllDisjoint(t *testing.T) {
	// Strictly phased accesses: all variables pairwise disjoint.
	s := trace.NewSequence(0, 0, 1, 1, 2, 2, 3, 3)
	a := trace.Analyze(s)
	r, err := DMA(a, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Disjoint) != 4 {
		t.Errorf("disjoint set size = %d, want 4", len(r.Disjoint))
	}
	c, _ := ShiftCost(s, r.Placement)
	// 4 disjoint vars in access order: at most 3 shifts.
	if c > 3 {
		t.Errorf("cost = %d, want <= 3", c)
	}
}

func TestDMACapacitySplitsDisjointSet(t *testing.T) {
	// 6 pairwise disjoint variables with capacity 2 need K = 3 DBCs.
	s := trace.NewSequence(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)
	a := trace.Analyze(s)
	r, err := DMA(a, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.DisjointDBCs != 3 {
		t.Errorf("K = %d, want 3", r.DisjointDBCs)
	}
	if err := r.Placement.Validate(s, 2); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
}

func TestDMASpillWhenDisjointExceedsArray(t *testing.T) {
	// 4 disjoint variables, q=2, capacity 2: disjoint set needs 2 DBCs
	// but one must remain for non-disjoint variable 4.
	s := trace.NewSequence(0, 4, 0, 1, 4, 1, 2, 2, 4, 3, 3)
	a := trace.Analyze(s)
	r, err := DMA(a, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.Validate(s, 0); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if r.DisjointDBCs >= 2 {
		t.Errorf("K = %d, must leave a DBC for non-disjoint variables", r.DisjointDBCs)
	}
}

func TestDMAErrors(t *testing.T) {
	s := trace.NewSequence(0, 1)
	a := trace.Analyze(s)
	if _, err := DMA(a, 0, 0); err == nil {
		t.Error("q=0 accepted")
	}
	if _, err := DMA(a, 2, -1); err == nil {
		t.Error("negative capacity accepted")
	}
}

func TestOFUOrdering(t *testing.T) {
	s := trace.NewSequence(2, 0, 1, 2)
	a := trace.Analyze(s)
	got := OFU([]int{0, 1, 2}, s, a)
	want := []int{2, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("OFU = %v, want %v", got, want)
		}
	}
}

func TestChenPlacesHeavyEdgeAdjacent(t *testing.T) {
	// 0 and 1 alternate heavily; 2 is rare. Chen must put 0 and 1 at
	// adjacent offsets.
	s := trace.NewSequence(0, 1, 0, 1, 0, 1, 0, 1, 2)
	a := trace.Analyze(s)
	got := Chen([]int{0, 1, 2}, s, a)
	pos := map[int]int{}
	for i, v := range got {
		pos[v] = i
	}
	d := pos[0] - pos[1]
	if d < 0 {
		d = -d
	}
	if d != 1 {
		t.Errorf("Chen placed 0 and 1 at distance %d, want 1 (%v)", d, got)
	}
}

func TestShiftsReducePlacesHubCentrally(t *testing.T) {
	// Star: 0 talks to everyone; 0 should not end up at an extreme end.
	s := trace.NewSequence(0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 0, 2, 0, 3, 0, 4)
	a := trace.Analyze(s)
	got := ShiftsReduce([]int{0, 1, 2, 3, 4}, s, a)
	pos := -1
	for i, v := range got {
		if v == 0 {
			pos = i
		}
	}
	if pos == 0 || pos == len(got)-1 {
		t.Errorf("hub placed at extreme offset %d of %v", pos, got)
	}
	// ShiftsReduce should beat OFU on this star.
	p1 := &Placement{DBC: [][]int{got}}
	p2 := &Placement{DBC: [][]int{OFU([]int{0, 1, 2, 3, 4}, s, a)}}
	c1, _ := ShiftCost(s, p1)
	c2, _ := ShiftCost(s, p2)
	if c1 > c2 {
		t.Errorf("ShiftsReduce (%d) worse than OFU (%d)", c1, c2)
	}
}

// Property: every intra heuristic returns a permutation of its input.
func TestIntraHeuristicsArePermutations(t *testing.T) {
	heuristics := map[string]IntraHeuristic{
		"Identity": Identity, "OFU": OFU, "Chen": Chen, "SR": ShiftsReduce,
	}
	rng := rand.New(rand.NewSource(3))
	for name, h := range heuristics {
		for trial := 0; trial < 40; trial++ {
			n := 1 + rng.Intn(10)
			s := randSeq(rng, n, 1+rng.Intn(40))
			a := trace.Analyze(s)
			vars := a.ByFirstUse()
			if len(vars) == 0 {
				continue
			}
			got := h(vars, s, a)
			if len(got) != len(vars) {
				t.Fatalf("%s: length %d, want %d", name, len(got), len(vars))
			}
			seen := map[int]bool{}
			for _, v := range got {
				if seen[v] {
					t.Fatalf("%s: duplicate %d in %v", name, v, got)
				}
				seen[v] = true
			}
			for _, v := range vars {
				if !seen[v] {
					t.Fatalf("%s: lost %d (in %v, out %v)", name, v, vars, got)
				}
			}
		}
	}
}

// Property: DMA always yields a valid placement and never places a
// variable twice, for arbitrary sequences and DBC counts.
func TestDMAAlwaysValid(t *testing.T) {
	f := func(raw []uint8, qRaw, capRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vars := make([]int, len(raw))
		for i, r := range raw {
			vars[i] = int(r % 16)
		}
		s := trace.NewSequence(vars...)
		q := int(qRaw%6) + 1
		capacity := 0
		if capRaw%3 == 0 {
			capacity = int(capRaw%8) + 4
		}
		a := trace.Analyze(s)
		r, err := DMA(a, q, capacity)
		if err != nil {
			return false
		}
		if err := r.Placement.Validate(s, 0); err != nil {
			return false
		}
		return r.Placement.NumDBCs() == q
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the disjoint set selected by DMA is pairwise disjoint and
// listed in ascending first-use order.
func TestDMADisjointSetIsDisjoint(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vars := make([]int, len(raw))
		for i, r := range raw {
			vars[i] = int(r % 12)
		}
		s := trace.NewSequence(vars...)
		a := trace.Analyze(s)
		r, err := DMA(a, 3, 0)
		if err != nil {
			return false
		}
		for i := 0; i < len(r.Disjoint); i++ {
			for j := i + 1; j < len(r.Disjoint); j++ {
				if !a.Disjoint(r.Disjoint[i], r.Disjoint[j]) {
					return false
				}
			}
			if i > 0 && a.First[r.Disjoint[i]] <= a.First[r.Disjoint[i-1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPlaceGAColdStart(t *testing.T) {
	s := trace.NewSequence(0, 1, 0, 1, 2, 2, 3, 3)
	opts := Options{
		GA: GAConfig{Mu: 10, Lambda: 10, Generations: 8, TournamentK: 4,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10,
			PermuteWeight: 3, Seed: 1},
		DisableGASeeding: true,
	}
	p, c, err := testRegistry.Place(StrategyGA, s, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(s, 0); err != nil {
		t.Fatalf("cold GA invalid: %v", err)
	}
	if c < 0 {
		t.Error("negative cost")
	}
}

func TestDMAEmptySequence(t *testing.T) {
	s := &trace.Sequence{}
	a := trace.Analyze(s)
	r, err := DMA(a, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Placement.NumPlaced() != 0 || r.DisjointDBCs != 0 {
		t.Errorf("empty sequence produced placement %v (K=%d)", r.Placement, r.DisjointDBCs)
	}
}

func TestDMAOnlyDisjointNoRemaining(t *testing.T) {
	// Every variable disjoint, none left over: the disjoint set may use
	// the whole array.
	s := trace.NewSequence(0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5)
	a := trace.Analyze(s)
	r, err := DMA(a, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Placement.Validate(s, 2); err != nil {
		t.Fatalf("capacity violated: %v", err)
	}
	if r.DisjointDBCs != 3 {
		t.Errorf("K = %d, want 3 (6 disjoint vars, capacity 2)", r.DisjointDBCs)
	}
}
