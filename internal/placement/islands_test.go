package placement

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// islandGAConfig is quickGA plus an island topology.
func islandGAConfig(seed int64, islands, migrate, elites int) GAConfig {
	cfg := quickGA(seed)
	cfg.Islands = islands
	cfg.MigrationEvery = migrate
	cfg.Elites = elites
	return cfg
}

// Islands == 1 must reproduce the serial GA move-for-move: same best,
// same cost, same evaluation count, same history.
func TestIslandsOneMatchesSerialGA(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, seed := range []int64{1, 7, 123, 9999} {
		s := randSeq(rng, 12, 120)
		serial, err := GAContext(context.Background(), s, 3, quickGA(seed))
		if err != nil {
			t.Fatal(err)
		}
		one, err := GAContext(context.Background(), s, 3, islandGAConfig(seed, 1, 5, 2))
		if err != nil {
			t.Fatal(err)
		}
		if serial.Cost != one.Cost || !serial.Best.Equal(one.Best) {
			t.Fatalf("seed %d: islands=1 diverged from serial GA: %d vs %d", seed, serial.Cost, one.Cost)
		}
		if serial.Evaluations != one.Evaluations || serial.Generations != one.Generations {
			t.Fatalf("seed %d: stats diverged: evals %d vs %d, gens %d vs %d",
				seed, serial.Evaluations, one.Evaluations, serial.Generations, one.Generations)
		}
		if len(serial.History) != len(one.History) {
			t.Fatalf("seed %d: history lengths diverged", seed)
		}
		for g := range serial.History {
			if serial.History[g] != one.History[g] {
				t.Fatalf("seed %d: history diverged at generation %d", seed, g)
			}
		}
	}
}

// The island GA must be bit-identical for a fixed (Islands,
// MigrationEvery, Elites, Seed) tuple regardless of the worker count.
func TestIslandGADeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := randSeq(rng, 14, 160)
	base := islandGAConfig(42, 3, 4, 2)
	base.Generations = 12

	var ref *GAResult
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		cfg := base
		cfg.Workers = workers
		r, err := GAContext(context.Background(), s, 4, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
			continue
		}
		if r.Cost != ref.Cost || !r.Best.Equal(ref.Best) {
			t.Fatalf("workers=%d diverged: %d vs %d", workers, r.Cost, ref.Cost)
		}
		if r.Evaluations != ref.Evaluations || r.Generations != ref.Generations {
			t.Fatalf("workers=%d stats diverged: evals %d vs %d", workers, r.Evaluations, ref.Evaluations)
		}
		for g := range ref.History {
			if r.History[g] != ref.History[g] {
				t.Fatalf("workers=%d history diverged at generation %d", workers, g)
			}
		}
	}
	if err := ref.Best.Validate(s, 0); err != nil {
		t.Fatalf("island GA produced invalid placement: %v", err)
	}
}

// The same determinism property under the multi-port objective, where
// fitness evaluation goes through the port cost model instead of the
// kernel.
func TestIslandGADeterministicMultiPort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randSeq(rng, 10, 100)
	pm, err := NewPortModel(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := islandGAConfig(7, 3, 3, 1)
	base.Generations = 9
	base.Port = pm

	var ref *GAResult
	for _, workers := range []int{1, 3} {
		cfg := base
		cfg.Workers = workers
		r, err := GAContext(context.Background(), s, 3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = r
		} else if r.Cost != ref.Cost || !r.Best.Equal(ref.Best) {
			t.Fatalf("multi-port workers=%d diverged: %d vs %d", workers, r.Cost, ref.Cost)
		}
	}
	// The reported cost must be the port objective of the best placement.
	want, err := PortCost(s, ref.Best, pm)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Cost != want {
		t.Fatalf("island GA cost %d != port objective %d", ref.Cost, want)
	}
}

// Migration must actually matter: with more than one island the ensemble
// best can only improve on (or match) each island run alone, and the
// composed statistics must aggregate all islands.
func TestIslandGAComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := randSeq(rng, 12, 140)
	cfg := islandGAConfig(11, 4, 5, 2)
	cfg.Generations = 10
	r, err := GAContext(context.Background(), s, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	single := cfg
	single.Islands = 1
	solo, err := GAContext(context.Background(), s, 4, single)
	if err != nil {
		t.Fatal(err)
	}
	// Island 0 starts on the unchanged run seed, so until the first
	// migration it tracks the solo run exactly; afterwards trajectories
	// diverge, but for this fixed seed the 4-island ensemble keeps pace
	// with the solo run (and both runs are deterministic, so this cannot
	// flake).
	if r.Cost > solo.Cost {
		t.Fatalf("4-island ensemble (%d) worse than its own island 0 alone (%d)", r.Cost, solo.Cost)
	}
	if r.Evaluations <= solo.Evaluations {
		t.Fatalf("ensemble evaluations %d not aggregated (solo %d)", r.Evaluations, solo.Evaluations)
	}
	if r.Generations != cfg.Generations {
		t.Fatalf("ensemble generations %d, want %d", r.Generations, cfg.Generations)
	}
	if len(r.History) != cfg.Generations {
		t.Fatalf("history length %d, want %d", len(r.History), cfg.Generations)
	}
}

// IslandProgress must report every island each round, islands ascending,
// with the monotone per-island best.
func TestIslandProgressReports(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSeq(rng, 10, 90)
	cfg := islandGAConfig(2, 3, 4, 1)
	cfg.Generations = 12
	type ev struct {
		island, gen int
		best        int64
	}
	var got []ev
	cfg.IslandProgress = func(island, generation int, best int64) {
		got = append(got, ev{island, generation, best})
	}
	if _, err := GAContext(context.Background(), s, 3, cfg); err != nil {
		t.Fatal(err)
	}
	rounds := 3 // 12 generations / MigrationEvery 4
	if len(got) != rounds*cfg.Islands {
		t.Fatalf("got %d progress events, want %d", len(got), rounds*cfg.Islands)
	}
	for i, e := range got {
		if e.island != i%cfg.Islands {
			t.Fatalf("event %d from island %d, want ascending order", i, e.island)
		}
		if wantGen := (i/cfg.Islands + 1) * 4; e.gen != wantGen {
			t.Fatalf("event %d at generation %d, want %d", i, e.gen, wantGen)
		}
	}
}

// Cancelling the context mid-search returns the best-so-far placement
// together with the context error, at every API level.
func TestIslandGACancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randSeq(rng, 12, 120)
	cfg := islandGAConfig(5, 3, 10, 2)
	cfg.Generations = 1 << 30 // far beyond any deadline

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := GAContext(ctx, s, 3, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt interrupt", elapsed)
	}
	if r == nil || r.Best == nil {
		t.Fatal("cancelled island GA returned no best-so-far")
	}
	if err := r.Best.Validate(s, 0); err != nil {
		t.Fatalf("best-so-far invalid: %v", err)
	}

	// Serial GA path: same contract.
	serial := quickGA(5)
	serial.Generations = 1 << 30
	ctx2, cancel2 := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel2()
	r2, err := GAContext(ctx2, s, 3, serial)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("serial err = %v, want DeadlineExceeded", err)
	}
	if r2 == nil || r2.Best == nil {
		t.Fatal("cancelled serial GA returned no best-so-far")
	}

	// An already-cancelled context still yields the initial population's
	// best rather than nothing.
	ctx3, cancel3 := context.WithCancel(context.Background())
	cancel3()
	r3, err := GAContext(ctx3, s, 3, islandGAConfig(5, 2, 5, 1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want Canceled", err)
	}
	if r3 == nil || r3.Best == nil {
		t.Fatal("pre-cancelled island GA returned no best-so-far")
	}
}

// Stress the concurrent island loop under the race detector: many small
// rounds with migration between every one of them. Skipped under -short;
// CI runs it with -race explicitly.
func TestIslandGARaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short (CI runs it under -race)")
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		s := randSeq(rng, 8+rng.Intn(8), 80+rng.Intn(80))
		cfg := islandGAConfig(int64(trial), 2+trial%3, 1, 1+trial%2)
		cfg.Generations = 6
		cfg.Workers = 1 + trial%5
		r, err := GAContext(context.Background(), s, 2+trial%3, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Best.Validate(s, 0); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// islandSeed must keep island 0 on the run seed and decorrelate the rest.
func TestIslandSeedDerivation(t *testing.T) {
	if islandSeed(42, 0) != 42 {
		t.Fatal("island 0 must keep the run seed")
	}
	seen := map[int64]bool{}
	for i := 0; i < 64; i++ {
		s := islandSeed(42, i)
		if seen[s] {
			t.Fatalf("island seed collision at island %d", i)
		}
		seen[s] = true
	}
}
