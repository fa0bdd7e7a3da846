package sim

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// testRegistry resolves the tests' strategy names: a fresh registry
// seeded with the builtins.
var testRegistry = func() *placement.Registry {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}()

func cfg4(t *testing.T) Config {
	t.Helper()
	c, err := TableIConfig(4)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTableIConfig(t *testing.T) {
	for _, dbcs := range rtm.TableIDBCCounts() {
		c, err := TableIConfig(dbcs)
		if err != nil {
			t.Fatal(err)
		}
		if c.Geometry.DBCs() != dbcs || c.Params.DBCs != dbcs {
			t.Errorf("config mismatch for %d DBCs: geo=%d params=%d",
				dbcs, c.Geometry.DBCs(), c.Params.DBCs)
		}
	}
	if _, err := TableIConfig(5); err == nil {
		t.Error("TableIConfig(5) should fail")
	}
}

func TestRunSequenceCountsMatchCostModel(t *testing.T) {
	cfg := cfg4(t)
	s, _ := trace.NewNamedSequence("a", "b", "a", "c!", "b")
	p := &placement.Placement{DBC: [][]int{{0, 1}, {2}}}
	r, err := RunSequence(cfg, s, p)
	if err != nil {
		t.Fatal(err)
	}
	wantShifts, err := placement.ShiftCost(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Counts.Shifts != wantShifts {
		t.Errorf("shifts = %d, want %d", r.Counts.Shifts, wantShifts)
	}
	if r.Counts.Reads != 4 || r.Counts.Writes != 1 {
		t.Errorf("reads/writes = %d/%d, want 4/1", r.Counts.Reads, r.Counts.Writes)
	}
	wantLat := cfg.Params.LatencyNS(r.Counts)
	if math.Abs(r.LatencyNS-wantLat) > 1e-9 {
		t.Errorf("latency = %v, want %v", r.LatencyNS, wantLat)
	}
	wantE := cfg.Params.Energy(r.Counts)
	if math.Abs(r.Energy.TotalPJ()-wantE.TotalPJ()) > 1e-9 {
		t.Errorf("energy = %v, want %v", r.Energy.TotalPJ(), wantE.TotalPJ())
	}
}

func TestRunSequenceErrors(t *testing.T) {
	cfg := cfg4(t)
	s := trace.NewSequence(0, 1)
	// Too many DBCs used.
	wide := placement.NewEmpty(9)
	wide.DBC[0] = []int{0}
	wide.DBC[8] = []int{1}
	if _, err := RunSequence(cfg, s, wide); err == nil {
		t.Error("placement wider than device accepted")
	}
	// Unplaced variable.
	missing := &placement.Placement{DBC: [][]int{{0}}}
	if _, err := RunSequence(cfg, s, missing); err == nil {
		t.Error("unplaced variable accepted")
	}
}

func TestCapacityEnforcement(t *testing.T) {
	cfg, _ := TableIConfig(16) // 64 domains per DBC
	cfg.EnforceCapacity = true
	vars := make([]int, 100)
	for i := range vars {
		vars[i] = i
	}
	s := trace.NewSequence(vars...)
	p := &placement.Placement{DBC: [][]int{vars}}
	if _, err := RunSequence(cfg, s, p); err == nil {
		t.Error("overflowing placement accepted with EnforceCapacity")
	}
	cfg.EnforceCapacity = false
	if _, err := RunSequence(cfg, s, p); err != nil {
		t.Errorf("relaxed capacity should accept: %v", err)
	}
}

func TestRunSequencesAccumulate(t *testing.T) {
	cfg := cfg4(t)
	var total Result
	for _, s := range []*trace.Sequence{
		trace.NewSequence(0, 1, 0, 1),
		trace.NewSequence(0, 0, 1, 2),
	} {
		p, _, err := testRegistry.Place(placement.StrategyDMAOFU, s, cfg.Geometry.DBCs(), placement.Options{})
		if err != nil {
			t.Fatal(err)
		}
		r, err := RunSequence(cfg, s, p)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(r)
	}
	if total.Sequences != 2 {
		t.Errorf("sequences = %d, want 2", total.Sequences)
	}
	if total.Counts.Accesses() != 8 {
		t.Errorf("accesses = %d, want 8", total.Counts.Accesses())
	}
	if total.LatencyNS <= 0 || total.Energy.TotalPJ() <= 0 {
		t.Error("no latency/energy accumulated")
	}
}

func TestResultAdd(t *testing.T) {
	a := Result{Counts: energy.Counts{Reads: 1, Shifts: 2}, LatencyNS: 3, Sequences: 1}
	a.Add(Result{Counts: energy.Counts{Reads: 2, Shifts: 5}, LatencyNS: 4, Sequences: 1})
	if a.Counts.Reads != 3 || a.Counts.Shifts != 7 || a.LatencyNS != 7 || a.Sequences != 2 {
		t.Errorf("Add gave %+v", a)
	}
}

// Fewer shifts must never produce more energy or latency under the same
// configuration — the monotonicity the paper's Fig. 5 argument rests on.
func TestBetterPlacementNeverCostsMore(t *testing.T) {
	cfg := cfg4(t)
	s := trace.NewSequence(0, 1, 2, 3, 0, 1, 2, 3, 0, 1)
	good := &placement.Placement{DBC: [][]int{{0, 1}, {2, 3}}}
	bad := &placement.Placement{DBC: [][]int{{0, 2, 1, 3}, {}}}
	rg, err := RunSequence(cfg, s, good)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := RunSequence(cfg, s, bad)
	if err != nil {
		t.Fatal(err)
	}
	if rg.Counts.Shifts >= rb.Counts.Shifts {
		t.Fatalf("test setup wrong: good %d shifts, bad %d", rg.Counts.Shifts, rb.Counts.Shifts)
	}
	if rg.LatencyNS > rb.LatencyNS {
		t.Error("fewer shifts but higher latency")
	}
	if rg.Energy.TotalPJ() > rb.Energy.TotalPJ() {
		t.Error("fewer shifts but higher energy")
	}
}

// TestRunSequenceGrownTrackKeepsPorts is the regression test for the
// multi-port growth bug: when a capacity-relaxed placement exceeds the
// geometry's domain count, the engines must keep the geometry's
// fabricated port positions — sizing the port spread to the grown track
// would silently displace the ports and diverge from every evaluator
// that priced the placement against the configured device.
func TestRunSequenceGrownTrackKeepsPorts(t *testing.T) {
	g := rtm.Geometry{Banks: 1, SubarraysPerBank: 1, DBCsPerSubarray: 1,
		TracksPerDBC: 1, DomainsPerTrack: 8, PortsPerTrack: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Geometry: g}

	// One DBC of 12 variables grows the 8-domain track to 12 domains;
	// the access pattern bounces between offsets 0 and 6.
	names := make([]string, 12)
	vars := make([]int, 12)
	for i := range names {
		names[i] = string(rune('a' + i))
		vars[i] = i
	}
	s := &trace.Sequence{Names: names}
	s.Append(0, false)
	s.Append(6, false)
	s.Append(0, false)
	p := &placement.Placement{DBC: [][]int{vars}}

	res, err := RunSequence(cfg, s, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fabricated layout {0, 4}: a(0) free; g(6) -> 2 shifts via the
	// port at 4; a(0) -> 2 shifts back. A layout respaced to the grown
	// 12-domain track ({0, 6}) would serve the whole pattern for free.
	if res.Counts.Shifts != 4 {
		t.Fatalf("grown-track shifts = %d, want 4 (geometry port layout)", res.Counts.Shifts)
	}
	want, err := placement.EngineCostAt(s, p, 12, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts.Shifts != want {
		t.Fatalf("sim %d != evaluator %d on the same layout", res.Counts.Shifts, want)
	}
	// And the exact multi-port evaluator agrees on the same model.
	m, err := placement.NewPortModel(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := placement.PortCost(s, p, m)
	if err != nil {
		t.Fatal(err)
	}
	if pc != res.Counts.Shifts {
		t.Fatalf("PortCost %d != simulated %d", pc, res.Counts.Shifts)
	}
}
