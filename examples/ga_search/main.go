// GA search: reproduce the paper's section III-C/IV-B methodology — use
// the µ+λ genetic algorithm as a near-optimal reference to judge how far
// the fast heuristics are from optimal on one workload, including the
// effect of seeding the GA with the heuristic placements (the paper seeds
// its GA; the cold-start variant is the ablation).
//
// Run with: go run ./examples/ga_search
package main

import (
	"context"
	"fmt"
	"log"

	racetrack "repro"
	"repro/internal/placement"
)

func main() {
	bench, err := racetrack.GenerateBenchmark("adpcm")
	if err != nil {
		log.Fatal(err)
	}
	// Pick the benchmark's largest sequence, as the paper's long-GA probe
	// does.
	seq := bench.Sequences[0]
	for _, s := range bench.Sequences {
		if s.Len() > seq.Len() {
			seq = s
		}
	}
	const dbcs = 4
	lab, err := racetrack.New(racetrack.WithDevice(dbcs))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("adpcm, largest sequence: %d accesses over %d variables, %d DBCs\n\n",
		seq.Len(), seq.NumVars(), dbcs)

	// Fast heuristics first.
	best := int64(-1)
	for _, strategy := range []racetrack.Strategy{
		racetrack.AFDOFU, racetrack.DMAOFU, racetrack.DMAChen, racetrack.DMASR,
	} {
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: strategy})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %6d shifts\n", strategy, res.Shifts)
		if best < 0 || res.Shifts < best {
			best = res.Shifts
		}
	}

	// GA at two budgets, seeded (default) and cold.
	ga := placement.GAConfig{
		Mu: 50, Lambda: 50, Generations: 120, TournamentK: 4,
		MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10,
		PermuteWeight: 3, Seed: 1,
	}
	res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: racetrack.GA, GA: ga})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-9s %6d shifts (seeded with heuristics, %d generations)\n",
		"GA", res.Shifts, ga.Generations)

	gap := 100 * float64(best-res.Shifts) / float64(res.Shifts)
	fmt.Printf("\nbest heuristic is %.1f%% above the GA reference ", gap)
	fmt.Println("(the paper reports ~38% after 2000 generations on its largest benchmark)")
}
