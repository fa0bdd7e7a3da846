// DBC sweep: the paper's Fig. 6 asks how many DBCs an iso-capacity 4 KiB
// RTM should have. This example sweeps the four Table I configurations on
// one of the bundled synthetic OffsetStone workloads, placing with DMA-SR,
// and prints the shifts/latency/energy/area trade-off — reproducing the
// conclusion that 2 DBCs drown in shift energy, 16 DBCs in leakage and
// area, and the sweet spot sits at 4-8 DBCs.
//
// Run with: go run ./examples/dbc_sweep [benchmark]
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	racetrack "repro"
)

func main() {
	name := "gsm"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	bench, err := racetrack.GenerateBenchmark(name)
	if err != nil {
		log.Fatalf("%v (try one of %v)", err, racetrack.BenchmarkNames())
	}
	fmt.Printf("benchmark %s: %d sequences, %d accesses\n\n",
		bench.Name, len(bench.Sequences), bench.TotalAccesses())

	lab, err := racetrack.New()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%5s %10s %13s %13s %11s %11s\n",
		"DBCs", "shifts", "latency[us]", "energy[nJ]", "leak[%]", "area[mm2]")
	for _, dbcs := range racetrack.TableIDBCCounts() {
		dev, err := racetrack.TableIDevice(dbcs)
		if err != nil {
			log.Fatal(err)
		}
		res, err := lab.SimulateBenchmarkOn(context.Background(), dev, bench,
			racetrack.PlaceOptions{Strategy: racetrack.DMASR})
		if err != nil {
			log.Fatal(err)
		}
		params, err := racetrack.EnergyParams(dbcs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%5d %10d %13.2f %13.2f %10.1f%% %11.4f\n",
			dbcs,
			res.Counts.Shifts,
			res.LatencyNS/1e3,
			res.Energy.TotalPJ()/1e3,
			100*res.Energy.LeakagePJ/res.Energy.TotalPJ(),
			params.AreaMM2)
	}
	fmt.Println("\nreading the table: shift counts stop improving beyond 4-8 DBCs while")
	fmt.Println("leakage share and area keep growing — the paper's Fig. 6 trade-off.")
}
