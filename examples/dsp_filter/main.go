// DSP pipeline scenario: the paper motivates RTM scratchpads for embedded
// signal-processing workloads. This example builds the scratchpad trace a
// compiler would emit for a staged sensor-processing function — calibrate,
// window, filter, feature-extract, pack, each stage running a small loop
// over its own temporaries before the next stage begins — and shows how
// much shifting each placement strategy saves on a 4-DBC racetrack
// scratchpad, including latency and energy.
//
// Staged straight-line code is exactly where the paper's DMA heuristic
// shines: each stage's temporaries die before the next stage's are born,
// so whole groups of variables have disjoint lifespans and can share one
// DBC at almost zero shift cost.
//
// Run with: go run ./examples/dsp_filter
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	racetrack "repro"
)

// pipelineTrace emits the access sequence of `stages` sequential
// processing stages. Each stage loops `reps` times over three private
// temporaries (accumulator, coefficient, sample) and touches the global
// `state` and `cfg` variables a few times — the bridge variables that
// stay live across the whole function.
func pipelineTrace(stages, reps int) string {
	var sb strings.Builder
	for s := 0; s < stages; s++ {
		acc := fmt.Sprintf("acc%d", s)
		coef := fmt.Sprintf("coef%d", s)
		smp := fmt.Sprintf("smp%d", s)
		sb.WriteString("state cfg ")
		for r := 0; r < reps; r++ {
			// acc += coef * smp, with the accumulator written back.
			fmt.Fprintf(&sb, "%s %s %s %s! ", smp, coef, acc, acc)
		}
		sb.WriteString("state! ")
	}
	return sb.String()
}

func main() {
	seq, err := racetrack.ParseSequence(pipelineTrace(12, 16))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("staged pipeline trace: %d accesses over %d variables\n\n",
		seq.Len(), seq.NumVars())

	lab, err := racetrack.New(racetrack.WithDevice(4))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	type row struct {
		strategy racetrack.Strategy
		shifts   int64
		latency  float64
		energy   float64
	}
	var rows []row
	var baseline row
	for _, strategy := range []racetrack.Strategy{
		racetrack.AFDOFU, racetrack.DMAOFU, racetrack.DMAChen, racetrack.DMASR,
	} {
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: strategy})
		if err != nil {
			log.Fatal(err)
		}
		sim, err := lab.Simulate(ctx, seq, res.Placement)
		if err != nil {
			log.Fatal(err)
		}
		r := row{strategy, sim.Counts.Shifts, sim.LatencyNS, sim.Energy.TotalPJ()}
		rows = append(rows, r)
		if strategy == racetrack.AFDOFU {
			baseline = r
		}
	}

	fmt.Printf("%-9s %8s %12s %12s %20s\n", "strategy", "shifts", "latency[ns]", "energy[pJ]", "vs AFD-OFU")
	for _, r := range rows {
		fmt.Printf("%-9s %8d %12.1f %12.1f   %5.2fx shifts, %5.1f%% energy\n",
			r.strategy, r.shifts, r.latency, r.energy,
			float64(baseline.shifts)/float64(max64(r.shifts, 1)),
			100*(1-r.energy/baseline.energy))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
