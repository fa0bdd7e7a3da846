package racetrack

import (
	"context"
	"testing"
)

// TestRegisterStrategyPublicHook registers a strategy through the Lab's
// public hook and resolves it everywhere the Lab accepts strategies by
// name; bad registrations are rejected.
func TestRegisterStrategyPublicHook(t *testing.T) {
	ctx := context.Background()
	lab := newLab(t)
	name := "api-test-identity"
	fn := func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error) {
		// Everything into DBC 0 in first-use order.
		p := &Placement{DBC: make([][]int, q)}
		seen := map[int]bool{}
		for _, a := range s.Accesses {
			if !seen[a.Var] {
				seen[a.Var] = true
				p.DBC[0] = append(p.DBC[0], a.Var)
			}
		}
		c, err := ShiftCost(s, p)
		return p, c, err
	}
	if err := lab.RegisterStrategy(name, fn); err != nil {
		t.Fatal(err)
	}
	if err := lab.RegisterStrategy(name, fn); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if err := lab.RegisterStrategy("api-test-nil", nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if err := lab.RegisterStrategy("", fn); err == nil {
		t.Fatal("empty name accepted")
	}

	s, err := ParseSequence("a b a b c c a")
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.Place(ctx, s, PlaceOptions{Strategy: Strategy(name), DBCs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.NumPlaced() != 3 {
		t.Fatalf("placed %d vars, want 3", res.Placement.NumPlaced())
	}
	if len(res.Placement.DBC[0]) != 3 {
		t.Fatalf("custom strategy not used: %s", res.Placement)
	}
	b := &Benchmark{Name: "one", Sequences: []*Sequence{s}}
	if _, err := lab.PlaceBenchmark(ctx, b, PlaceOptions{Strategy: Strategy(name)}); err != nil {
		t.Fatalf("PlaceBenchmark: %v", err)
	}

	found := false
	for _, id := range lab.RegisteredStrategies() {
		if id == Strategy(name) {
			found = true
		}
	}
	if !found {
		t.Fatal("custom strategy missing from RegisteredStrategies")
	}
}

// TestDMA2OptRegistered checks the built-in extension strategy works via
// name dispatch and never loses to DMA-SR.
func TestDMA2OptRegistered(t *testing.T) {
	ctx := context.Background()
	lab := newLab(t)
	b, err := GenerateBenchmark("gsm")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range b.Sequences[:2] {
		sr, err := lab.Place(ctx, s, PlaceOptions{Strategy: DMASR, DBCs: 4})
		if err != nil {
			t.Fatal(err)
		}
		two, err := lab.Place(ctx, s, PlaceOptions{Strategy: DMA2Opt, DBCs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if two.Shifts > sr.Shifts {
			t.Errorf("DMA-2opt %d > DMA-SR %d", two.Shifts, sr.Shifts)
		}
	}
}

// TestPlaceBenchmarkParallelDeterministic: PlaceBenchmark must agree with
// per-sequence Place and be identical for any worker count, with and
// without the kernel cache.
func TestPlaceBenchmarkParallelDeterministic(t *testing.T) {
	ctx := context.Background()
	b, err := GenerateBenchmark("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	lab := newLab(t)
	one, err := lab.PlaceBenchmark(ctx, b, PlaceOptions{Strategy: DMASR, DBCs: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Results) != len(b.Sequences) {
		t.Fatalf("%d results, want %d", len(one.Results), len(b.Sequences))
	}
	for _, other := range []*Lab{lab, newLab(t, WithKernelCache(0))} {
		eight, err := other.PlaceBenchmark(ctx, b, PlaceOptions{Strategy: DMASR, DBCs: 4, Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if one.TotalShifts != eight.TotalShifts {
			t.Fatalf("totals differ: %d vs %d", one.TotalShifts, eight.TotalShifts)
		}
		if len(eight.Results) != len(b.Sequences) {
			t.Fatalf("%d results, want %d", len(eight.Results), len(b.Sequences))
		}
		for i := range b.Sequences {
			if !one.Results[i].Placement.Equal(eight.Results[i].Placement) {
				t.Errorf("sequence %d: placements differ across worker counts", i)
			}
			for d := range one.Results[i].PerDBC {
				if one.Results[i].PerDBC[d] != eight.Results[i].PerDBC[d] {
					t.Errorf("sequence %d: PerDBC[%d] differs across worker counts", i, d)
				}
			}
		}
	}
	var sum int64
	for i, s := range b.Sequences {
		single, err := lab.Place(ctx, s, PlaceOptions{Strategy: DMASR, DBCs: 4})
		if err != nil {
			t.Fatal(err)
		}
		if single.Shifts != one.Results[i].Shifts {
			t.Errorf("sequence %d: Place %d vs PlaceBenchmark %d", i, single.Shifts, one.Results[i].Shifts)
		}
		sum += one.Results[i].Shifts
	}
	if sum != one.TotalShifts {
		t.Fatalf("TotalShifts %d != sum %d", one.TotalShifts, sum)
	}
}

func TestPlaceBenchmarkUnknownStrategy(t *testing.T) {
	b, err := ParseBenchmark("demo", "seq f\na b a\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newLab(t).PlaceBenchmark(context.Background(), b, PlaceOptions{Strategy: "no-such", DBCs: 2}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}
