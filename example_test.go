package racetrack_test

import (
	"context"
	"fmt"
	"log"

	racetrack "repro"
)

// The paper's Fig. 3 example: parse the access sequence, place it with
// the sequence-aware heuristic and report the shift cost.
func ExampleLab_Place() {
	lab, err := racetrack.New()
	if err != nil {
		log.Fatal(err)
	}
	seq, err := racetrack.ParseSequence(
		"a b a b c a c a d d a i e f e f g e g h g i h i")
	if err != nil {
		log.Fatal(err)
	}
	res, err := lab.Place(context.Background(), seq, racetrack.PlaceOptions{
		Strategy: racetrack.DMAOFU,
		DBCs:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d shifts\n%s\n", res.Shifts, res.Placement.Render(seq))
	// Output:
	// 9 shifts
	// DBC0:[b c d e h] | DBC1:[a i f g]
}

// Evaluate a hand-built layout: the AFD placement of the paper's Fig. 3-(c)
// costs 39 shifts.
func ExampleShiftCost() {
	seq, err := racetrack.ParseSequence(
		"a b a b c a c a d d a i e f e f g e g h g i h i")
	if err != nil {
		log.Fatal(err)
	}
	// Variable ids follow first appearance: a=0 b=1 c=2 d=3 i=4 e=5 f=6 g=7 h=8.
	p := &racetrack.Placement{DBC: [][]int{
		{0, 7, 1, 3, 8}, // a g b d h
		{5, 4, 2, 6},    // e i c f
	}}
	cost, err := racetrack.ShiftCost(seq, p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cost)
	// Output:
	// 39
}

// Simulate a placement on the paper's 4-DBC Table I device.
func ExampleLab_Simulate() {
	ctx := context.Background()
	lab, err := racetrack.New(racetrack.WithDevice(4))
	if err != nil {
		log.Fatal(err)
	}
	seq, err := racetrack.ParseSequence("x y! x y x z")
	if err != nil {
		log.Fatal(err)
	}
	res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: racetrack.DMASR})
	if err != nil {
		log.Fatal(err)
	}
	sim, err := lab.Simulate(ctx, seq, res.Placement)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reads=%d writes=%d shifts=%d\n",
		sim.Counts.Reads, sim.Counts.Writes, sim.Counts.Shifts)
	// Output:
	// reads=5 writes=1 shifts=1
}

// Compile a tiny program to an access trace with the bundled frontend.
func ExampleCompileTrace() {
	bench, err := racetrack.CompileTrace("demo", `
func f
  loop 2
    acc = acc + x
  end
end
`)
	if err != nil {
		log.Fatal(err)
	}
	seq := bench.Sequences[0]
	fmt.Println(seq.Len(), "accesses over", seq.NumVars(), "locals")
	// Output:
	// 6 accesses over 2 locals
}
