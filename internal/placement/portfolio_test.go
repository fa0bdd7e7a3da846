package placement

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/trace"
)

// racePortfolioIDs is the test portfolio: every builtin strategy plus
// the two extension strategies, in deterministic tie-break order.
func racePortfolioIDs() []StrategyID {
	return append(AllStrategies(), StrategyDMATwoOpt, StrategyGAMemetic)
}

// raceOptions keeps the search strategies cheap enough for racing in
// tests.
func raceOptions(seed int64) Options {
	return Options{
		GA:               quickGA(seed),
		RW:               RWConfig{Iterations: 400, Seed: seed},
		DisableGASeeding: true,
	}
}

// oracleBest runs the portfolio sequentially through Place with full
// pricing and returns the first-in-order winner and its cost — the
// result the race must reproduce exactly.
func oracleBest(t *testing.T, ids []StrategyID, s *trace.Sequence, q int, opts Options) (StrategyID, int64) {
	t.Helper()
	bestID, bestCost := StrategyID(""), int64(-1)
	for _, id := range ids {
		_, c, err := testRegistry.Place(id, s, q, opts)
		if err != nil {
			t.Fatalf("oracle %s: %v", id, err)
		}
		if bestCost < 0 || c < bestCost {
			bestID, bestCost = id, c
		}
	}
	return bestID, bestCost
}

// The race's winner and cost must equal the sequential oracle's at every
// worker count — abandonment only ever discards strictly-worse
// candidates, so concurrency must not change the outcome.
func TestPortfolioMatchesSequentialOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ids := racePortfolioIDs()
	for trial := 0; trial < 6; trial++ {
		s := randSeq(rng, 6+rng.Intn(10), 60+rng.Intn(120))
		q := 2 + rng.Intn(3)
		opts := raceOptions(int64(trial + 1))
		wantID, wantCost := oracleBest(t, ids, s, q, opts)
		for _, workers := range []int{1, 3, 4, runtime.GOMAXPROCS(0)} {
			r, err := RacePortfolio(context.Background(), s, q, PortfolioConfig{
				Registry:   testRegistry,
				Strategies: ids, Workers: workers, Options: opts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Winner != wantID || r.Cost != wantCost {
				t.Fatalf("trial %d workers=%d: race (%s, %d) != oracle (%s, %d)",
					trial, workers, r.Winner, r.Cost, wantID, wantCost)
			}
			if err := r.Placement.Validate(s, 0); err != nil {
				t.Fatalf("trial %d: winning placement invalid: %v", trial, err)
			}
			got, err := ShiftCost(s, r.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if got != r.Cost {
				t.Fatalf("trial %d: reported cost %d, replay %d", trial, r.Cost, got)
			}
			// Abandoned entries carry only a certificate: their true cost
			// exceeds the winner's, and so must the certificate.
			for _, e := range r.Entries {
				if e.Abandoned && e.Cost <= r.Cost {
					t.Fatalf("trial %d: abandoned %s certificate %d not above winner %d",
						trial, e.Strategy, e.Cost, r.Cost)
				}
			}
		}
	}
}

// The race under the multi-port objective: winner parity with the
// sequential oracle, and the winning cost is the port objective.
func TestPortfolioMultiPort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randSeq(rng, 10, 100)
	opts := raceOptions(9)
	opts.Ports = 2
	opts.PortDomains = 16
	pm, err := opts.PortModelFor(3)
	if err != nil {
		t.Fatal(err)
	}
	ids := racePortfolioIDs()
	wantID, wantCost := oracleBest(t, ids, s, 3, opts)
	r, err := RacePortfolio(context.Background(), s, 3, PortfolioConfig{
		Registry:   testRegistry,
		Strategies: ids, Workers: 3, Options: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Winner != wantID || r.Cost != wantCost {
		t.Fatalf("race (%s, %d) != oracle (%s, %d)", r.Winner, r.Cost, wantID, wantCost)
	}
	got, err := PortCost(s, r.Placement, pm)
	if err != nil {
		t.Fatal(err)
	}
	if got != r.Cost {
		t.Fatalf("reported cost %d, port objective %d", r.Cost, got)
	}
}

// Progress must report exactly one start and one finish event per
// strategy, with finish events mirroring the entries.
func TestPortfolioProgress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randSeq(rng, 8, 80)
	ids := racePortfolioIDs()
	var events []PortfolioEvent
	r, err := RacePortfolio(context.Background(), s, 2, PortfolioConfig{
		Registry:   testRegistry,
		Strategies: ids, Workers: 2, Options: raceOptions(3),
		Progress: func(ev PortfolioEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2*len(ids) {
		t.Fatalf("got %d events, want %d", len(events), 2*len(ids))
	}
	starts, finishes := 0, 0
	for _, ev := range events {
		if ev.Total != len(ids) {
			t.Fatalf("event Total = %d, want %d", ev.Total, len(ids))
		}
		if !ev.Done {
			starts++
			continue
		}
		finishes++
		e := r.Entries[ev.Index]
		if ev.Strategy != e.Strategy || ev.Cost != e.Cost || ev.Abandoned != e.Abandoned {
			t.Fatalf("finish event %+v does not mirror entry %+v", ev, e)
		}
	}
	if starts != len(ids) || finishes != len(ids) {
		t.Fatalf("starts %d finishes %d, want %d each", starts, finishes, len(ids))
	}
}

// An unknown strategy fails the whole race with a resolvable error.
func TestPortfolioUnknownStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randSeq(rng, 5, 30)
	_, err := RacePortfolio(context.Background(), s, 2, PortfolioConfig{
		Registry:   testRegistry,
		Strategies: []StrategyID{"AFD-OFU", "no-such-strategy"},
		Options:    raceOptions(1),
	})
	if err == nil {
		t.Fatal("unknown strategy did not fail the race")
	}
	// An empty portfolio on an empty registry is rejected too.
	_, err = RacePortfolio(context.Background(), s, 2, PortfolioConfig{
		Registry: &Registry{byID: map[StrategyID]Strategy{}},
		Options:  raceOptions(1),
	})
	if err == nil {
		t.Fatal("empty portfolio did not fail")
	}
}

// A cancelled context aborts the race with the context error.
func TestPortfolioCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randSeq(rng, 10, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RacePortfolio(ctx, s, 2, PortfolioConfig{
		Registry:   testRegistry,
		Strategies: racePortfolioIDs(), Workers: 2, Options: raceOptions(4),
	})
	if err == nil {
		t.Fatal("pre-cancelled race returned no error")
	}
}

// Stress the concurrent race under the race detector. Skipped under
// -short; CI runs it with -race explicitly.
func TestPortfolioRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; run without -short (CI runs it under -race)")
	}
	rng := rand.New(rand.NewSource(55))
	ids := racePortfolioIDs()
	for trial := 0; trial < 10; trial++ {
		s := randSeq(rng, 6+rng.Intn(10), 50+rng.Intn(100))
		opts := raceOptions(int64(trial))
		wantID, wantCost := oracleBest(t, ids, s, 3, opts)
		r, err := RacePortfolio(context.Background(), s, 3, PortfolioConfig{
			Registry:   testRegistry,
			Strategies: ids, Workers: 8, Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Winner != wantID || r.Cost != wantCost {
			t.Fatalf("trial %d: race (%s, %d) != oracle (%s, %d)",
				trial, r.Winner, r.Cost, wantID, wantCost)
		}
	}
}
