// Command apismoke is the API-compat smoke test: a minimal external
// module that exercises the documented public surface of the racetrack
// package — and nothing else. It lives outside the library module (its
// own go.mod with a replace directive), so `internal/...` packages are
// genuinely unimportable here: if a documented workflow ever comes to
// require an internal type, this program stops compiling and CI fails.
//
// It is also runnable (CI runs it) as an end-to-end sanity check of the
// session API: build a Lab with a custom strategy, place the paper's
// worked example, simulate it, and run one tiny experiment.
package main

import (
	"context"
	"fmt"
	"log"

	racetrack "repro"
)

func main() {
	ctx := context.Background()

	custom := func(s *racetrack.Sequence, q int, opts racetrack.StrategyOptions) (*racetrack.Placement, int64, error) {
		p := &racetrack.Placement{DBC: make([][]int, q)}
		seen := map[int]bool{}
		for _, a := range s.Accesses {
			if !seen[a.Var] {
				seen[a.Var] = true
				p.DBC[0] = append(p.DBC[0], a.Var)
			}
		}
		c, err := racetrack.ShiftCost(s, p)
		return p, c, err
	}
	lab, err := racetrack.New(
		racetrack.WithDevice(2),
		racetrack.WithWorkers(2),
		racetrack.WithKernelCache(8),
		racetrack.WithStrategy("all-in-one", custom),
		racetrack.WithProgress(func(ev racetrack.ProgressEvent) {}),
	)
	if err != nil {
		log.Fatal(err)
	}

	seq, err := racetrack.ParseSequence("a b a b c a c a d d a i e f e f g e g h g i h i")
	if err != nil {
		log.Fatal(err)
	}
	// RegisteredStrategies includes the WithStrategy plugin next to the
	// paper's six and the built-in extensions.
	for _, strategy := range lab.RegisteredStrategies() {
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{
			Strategy: strategy,
			GA: racetrack.GAConfig{Mu: 8, Lambda: 8, Generations: 4, TournamentK: 4,
				MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
			RW: racetrack.RWConfig{Iterations: 40, Seed: 1},
		})
		if err != nil {
			log.Fatalf("%s: %v", strategy, err)
		}
		sim, err := lab.Simulate(ctx, seq, res.Placement)
		if err != nil {
			log.Fatalf("%s: %v", strategy, err)
		}
		if sim.Counts.Shifts != res.Shifts {
			log.Fatalf("%s: simulator disagrees with cost model: %d vs %d",
				strategy, sim.Counts.Shifts, res.Shifts)
		}
		fmt.Printf("%-10s %3d shifts\n", strategy, res.Shifts)
	}

	// One tiny experiment through the typed spec.
	cfg := racetrack.QuickConfig()
	cfg.Benchmarks = []string{"anagram"}
	cfg.MaxSequences = 1
	cfg.MaxSequenceLen = 200
	cfg.DBCCounts = []int{2}
	res, err := lab.Run(ctx, racetrack.ExperimentSpec{Experiment: racetrack.ExperimentTensor, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
}
