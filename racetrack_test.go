package racetrack

import (
	"context"
	"strings"
	"testing"

	"repro/internal/placement"
)

// testRegistry resolves strategy names for the tests and benchmarks
// that run strategies outside a Lab: a fresh registry, as every Lab has
// its own.
var testRegistry = func() *placement.Registry {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}()

// newLab builds a Lab with the given options for a test.
func newLab(t *testing.T, opts ...Option) *Lab {
	t.Helper()
	lab, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestParseSequence(t *testing.T) {
	s, err := ParseSequence("a b! a c")
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || s.NumVars() != 3 {
		t.Fatalf("len=%d vars=%d", s.Len(), s.NumVars())
	}
	if s.Writes() != 1 {
		t.Errorf("writes = %d, want 1", s.Writes())
	}
	if _, err := ParseSequence("   "); err == nil {
		t.Error("empty sequence accepted")
	}
}

func TestParseBenchmark(t *testing.T) {
	b, err := ParseBenchmark("demo", "seq f\na b a\nseq g\nx y\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sequences) != 2 {
		t.Fatalf("sequences = %d", len(b.Sequences))
	}
}

func TestPlaceTraceDefaults(t *testing.T) {
	s, _ := ParseSequence("a b a b c c d d")
	res, err := newLab(t).Place(context.Background(), s, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.NumDBCs() != 4 {
		t.Errorf("default DBCs = %d, want 4", res.Placement.NumDBCs())
	}
	if res.Shifts < 0 {
		t.Errorf("negative shifts")
	}
	if len(res.PerDBC) != 4 {
		t.Errorf("per-DBC breakdown has %d entries", len(res.PerDBC))
	}
	var sum int64
	for _, c := range res.PerDBC {
		sum += c
	}
	if sum != res.Shifts {
		t.Errorf("per-DBC sum %d != total %d", sum, res.Shifts)
	}
}

func TestPlaceTraceAllStrategies(t *testing.T) {
	lab := newLab(t)
	s, _ := ParseSequence("a b a b c a c a d d a i e f e f g e g h g i h i")
	for _, strat := range Strategies() {
		opts := PlaceOptions{Strategy: strat, DBCs: 2,
			GA: placement.GAConfig{Mu: 10, Lambda: 10, Generations: 5, TournamentK: 4,
				MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
			RW: placement.RWConfig{Iterations: 50, Seed: 1}}
		res, err := lab.Place(context.Background(), s, opts)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if err := res.Placement.Validate(s, 0); err != nil {
			t.Fatalf("%s: invalid placement: %v", strat, err)
		}
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	ctx := context.Background()
	lab := newLab(t, WithDevice(2))
	s, _ := ParseSequence("a b a b! c a c a d d a")
	res, err := lab.Place(ctx, s, PlaceOptions{Strategy: DMASR})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.NumDBCs() != 2 {
		t.Fatalf("placed into %d DBCs, want the device's 2", res.Placement.NumDBCs())
	}
	sr, err := lab.Simulate(ctx, s, res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Counts.Shifts != res.Shifts {
		t.Errorf("sim shifts %d != cost model %d", sr.Counts.Shifts, res.Shifts)
	}
	if sr.Counts.Writes != 1 || sr.Counts.Reads != 10 {
		t.Errorf("reads/writes = %d/%d", sr.Counts.Reads, sr.Counts.Writes)
	}
	if sr.LatencyNS <= 0 || sr.Energy.TotalPJ() <= 0 {
		t.Error("missing latency/energy")
	}
}

func TestSimulateBenchmark(t *testing.T) {
	b, _ := ParseBenchmark("demo", "seq f\na b a b\nseq g\nx x y\n")
	dev, _ := TableIDevice(4)
	r, err := newLab(t).SimulateBenchmarkOn(context.Background(), dev, b, PlaceOptions{Strategy: DMAOFU})
	if err != nil {
		t.Fatal(err)
	}
	if r.Sequences != 2 || r.Counts.Accesses() != 7 {
		t.Errorf("sequences=%d accesses=%d", r.Sequences, r.Counts.Accesses())
	}
}

func TestTableIDevice(t *testing.T) {
	for _, q := range TableIDBCCounts() {
		dev, err := TableIDevice(q)
		if err != nil {
			t.Fatal(err)
		}
		if dev.Geometry.DBCs() != q {
			t.Errorf("device DBCs = %d, want %d", dev.Geometry.DBCs(), q)
		}
		p, err := EnergyParams(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.DBCs != q {
			t.Errorf("params DBCs = %d", p.DBCs)
		}
	}
	if _, err := TableIDevice(3); err == nil {
		t.Error("invalid DBC count accepted")
	}
}

func TestStrategiesList(t *testing.T) {
	got := Strategies()
	if len(got) != 6 {
		t.Fatalf("%d strategies, want 6", len(got))
	}
	joined := ""
	for _, s := range got {
		joined += string(s) + " "
	}
	for _, want := range []string{"AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing strategy %s", want)
		}
	}
}

func TestBankedCycleSimulator(t *testing.T) {
	cs, err := NewBankedCycleSimulator(4, 4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ParseSequence("a b c d a b c d")
	p := &Placement{DBC: [][]int{{0}, {1}, {2}, {3}}}
	open, err := SimulateCycles(cs, s, p, false)
	if err != nil {
		t.Fatal(err)
	}
	cs2, _ := NewBankedCycleSimulator(4, 4, 1.0)
	serial, err := SimulateCycles(cs2, s, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if open.Cycles > serial.Cycles {
		t.Errorf("open-loop (%d) slower than serialized (%d)", open.Cycles, serial.Cycles)
	}
	// Invalid bank splits.
	if _, err := NewBankedCycleSimulator(4, 3, 1.0); err == nil {
		t.Error("3 banks for 4 DBCs accepted")
	}
	if _, err := NewBankedCycleSimulator(4, 0, 1.0); err == nil {
		t.Error("0 banks accepted")
	}
	if _, err := NewBankedCycleSimulator(5, 1, 1.0); err == nil {
		t.Error("non-Table-I DBC count accepted")
	}
}

func TestFacadeRTMCache(t *testing.T) {
	c, err := NewRTMCache(RTMCacheConfig{Sets: 2, Ways: 2, LineBytes: 64,
		Policy: CacheInsertNearPort, Ports: 1})
	if err != nil {
		t.Fatal(err)
	}
	if hit, _, _ := c.Access(0, false); hit {
		t.Error("cold hit")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Error("warm miss")
	}
	if c.Stats().Accesses() != 2 {
		t.Errorf("accesses = %d", c.Stats().Accesses())
	}
}

func TestFacadeCompileTraceError(t *testing.T) {
	if _, err := CompileTrace("x", "not a program"); err == nil {
		t.Error("garbage accepted")
	}
}
