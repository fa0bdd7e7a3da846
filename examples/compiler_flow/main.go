// Compiler flow: the end-to-end pipeline the paper sits in. A source
// program over scalar locals is compiled to a memory access sequence (one
// per function, as in OffsetStone), the placement algorithms lay the
// locals out in an RTM scratchpad, and the cycle-accurate simulator
// reports the runtime difference — including what happens when the
// scratchpad controller can exploit bank-level parallelism.
//
// Run with: go run ./examples/compiler_flow
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	racetrack "repro"
)

// source builds a staged signal-chain program: each function runs many
// sequential loop stages over stage-local temporaries — the straight-line
// shape offset-assignment research targets. With more locals than DBC
// slots, the scratchpad gets crowded and temporal separation (the paper's
// heuristic) pays off.
func source() string {
	var sb strings.Builder
	emitStage := func(i, reps int) {
		fmt.Fprintf(&sb, "  loop %d\n", reps)
		fmt.Fprintf(&sb, "    c%d = r%d - o%d\n", i, i, i)
		fmt.Fprintf(&sb, "    r%d = c%d * g%d\n", i, i, i)
		fmt.Fprintf(&sb, "    k%d += r%d\n", i, i)
		sb.WriteString("  end\n")
	}
	sb.WriteString("# staged sensor pipeline over scratchpad locals\n")
	sb.WriteString("func calibrate\n")
	for i := 0; i < 10; i++ {
		emitStage(i, 12+i%3)
	}
	sb.WriteString("end\n")
	sb.WriteString("func smooth\n")
	for i := 0; i < 8; i++ {
		emitStage(i, 10)
	}
	sb.WriteString("end\n")
	sb.WriteString("func pack\n")
	for i := 0; i < 6; i++ {
		emitStage(i, 8+i)
	}
	sb.WriteString("end\n")
	return sb.String()
}

func main() {
	bench, err := racetrack.CompileTrace("pipeline", source())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d functions:\n", len(bench.Sequences))
	for i, s := range bench.Sequences {
		fmt.Printf("  func %d: %d accesses over %d locals\n", i, s.Len(), s.NumVars())
	}

	const dbcs = 4
	lab, err := racetrack.New(racetrack.WithDevice(dbcs))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	fmt.Printf("\nplacement on a %d-DBC scratchpad:\n", dbcs)
	fmt.Printf("%-9s %10s %16s %16s\n", "strategy", "shifts", "serial cycles", "open-loop cycles")
	for _, strategy := range []racetrack.Strategy{racetrack.AFDOFU, racetrack.DMASR} {
		var shifts, serialCycles, openCycles int64
		for _, seq := range bench.Sequences {
			res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: strategy})
			if err != nil {
				log.Fatal(err)
			}
			// Cycle-accurate runs at 2 GHz: the closed-loop CPU model on
			// the stock single-bank device, and an open-loop run with the
			// four DBCs spread across four banks so shifting overlaps.
			cs, err := racetrack.NewCycleSimulator(dbcs, 2.0)
			if err != nil {
				log.Fatal(err)
			}
			serial, err := racetrack.SimulateCycles(cs, seq, res.Placement, true)
			if err != nil {
				log.Fatal(err)
			}
			banked, err := racetrack.NewBankedCycleSimulator(dbcs, dbcs, 2.0)
			if err != nil {
				log.Fatal(err)
			}
			open, err := racetrack.SimulateCycles(banked, seq, res.Placement, false)
			if err != nil {
				log.Fatal(err)
			}
			shifts += serial.Counts.Shifts
			serialCycles += serial.Cycles
			openCycles += open.Cycles
		}
		fmt.Printf("%-9s %10d %16d %16d\n", strategy, shifts, serialCycles, openCycles)
	}
	fmt.Println("\nserial = CPU issues one scratchpad access at a time (the paper's model);")
	fmt.Println("open-loop = a DMA engine streams requests, overlapping per-DBC shifting.")
}
