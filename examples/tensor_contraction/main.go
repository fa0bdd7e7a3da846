// Tensor contraction scenario: the paper's companion study (LCTES'19,
// ref [5]) ran tensor contractions on RTM scratchpads and reported large
// shift savings from placement. This example regenerates that flavour of
// result: a tiled matmul's scratchpad trace under three loop orders,
// placed with the baseline and with the paper's heuristic, on the 8-DBC
// Table I device.
//
// Run with: go run ./examples/tensor_contraction
package main

import (
	"context"
	"fmt"
	"log"

	racetrack "repro"
	"repro/internal/tensor"
)

func main() {
	fmt.Println("tiled matmul C[i,j] += A[i,k]*B[k,j], 4x4x4 tiles, 8-DBC 4 KiB RTM")
	fmt.Printf("%-6s %10s %10s %10s %12s\n",
		"order", "accesses", "AFD-OFU", "DMA-SR", "improvement")

	lab, err := racetrack.New(racetrack.WithDevice(8))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, order := range []tensor.LoopOrder{tensor.IJK, tensor.IKJ, tensor.JKI} {
		c := tensor.Contraction{I: 4, J: 4, K: 4, Order: order, Accumulate: true}
		seq, err := c.Trace()
		if err != nil {
			log.Fatal(err)
		}
		costs := map[racetrack.Strategy]int64{}
		for _, strategy := range []racetrack.Strategy{racetrack.AFDOFU, racetrack.DMASR} {
			res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: strategy})
			if err != nil {
				log.Fatal(err)
			}
			if _, err := lab.Simulate(ctx, seq, res.Placement); err != nil {
				log.Fatal(err)
			}
			costs[strategy] = res.Shifts
		}
		imp := float64(costs[racetrack.AFDOFU]) / float64(max64(costs[racetrack.DMASR], 1))
		fmt.Printf("%-6s %10d %10d %10d %11.2fx\n",
			order, seq.Len(), costs[racetrack.AFDOFU], costs[racetrack.DMASR], imp)
	}
	fmt.Println("\nloop order changes reuse distance, and placement quality follows —")
	fmt.Println("the compiler owns both knobs (the LCTES'19 observation).")
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
