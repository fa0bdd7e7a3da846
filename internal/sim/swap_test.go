package sim

import (
	"math/rand"
	"testing"

	"repro/internal/placement"
	"repro/internal/trace"
)

func TestSwapDisabledMatchesStatic(t *testing.T) {
	cfg := cfg4(t)
	s := trace.NewSequence(0, 1, 2, 0, 1, 2)
	p := &placement.Placement{DBC: [][]int{{0, 1, 2}, {}, {}, {}}}
	static, err := RunSequence(cfg, s, p)
	if err != nil {
		t.Fatal(err)
	}
	swr, err := RunSequenceSwapping(cfg, s, p, SwapConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if swr.Counts != static.Counts || swr.Swaps != 0 {
		t.Errorf("disabled swapping diverged: %+v vs %+v", swr.Counts, static.Counts)
	}
}

func TestSwapPromotesHotVariable(t *testing.T) {
	cfg := cfg4(t)
	// Variable 3 starts at the far end but is accessed constantly; the
	// transpose rule must migrate it toward offset 0, making a bad static
	// layout cheap over time.
	var vars []int
	vars = append(vars, 0, 1, 2) // warm up counters of the front vars
	for i := 0; i < 50; i++ {
		vars = append(vars, 3, 0) // alternate hot tail with the head
	}
	s := trace.NewSequence(vars...)
	p := &placement.Placement{DBC: [][]int{{0, 1, 2, 3}, {}, {}, {}}}

	static, err := RunSequence(cfg, s, p)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := RunSequenceSwapping(cfg, s, p, SwapConfig{Enable: true})
	if err != nil {
		t.Fatal(err)
	}
	if dyn.Swaps == 0 {
		t.Fatal("no swaps happened")
	}
	if dyn.Counts.Shifts >= static.Counts.Shifts {
		t.Errorf("swapping did not reduce shifts on a hot-tail trace: %d vs %d",
			dyn.Counts.Shifts, static.Counts.Shifts)
	}
	// Swapping costs writes.
	if dyn.Counts.Writes <= static.Counts.Writes {
		t.Error("swap write overhead not accounted")
	}
}

func TestSwapVsStatic(t *testing.T) {
	// The paper's positioning: good static placement (DMA-SR) captures
	// most of the benefit without runtime overhead. Compare (a) bad
	// static, (b) bad static + swapping, (c) DMA-SR static, on a phased
	// trace.
	cfg := cfg4(t)
	rng := rand.New(rand.NewSource(7))
	var vars []int
	for phase := 0; phase < 8; phase++ {
		base := phase * 3
		for i := 0; i < 60; i++ {
			vars = append(vars, base+rng.Intn(3))
		}
	}
	s := trace.NewSequence(vars...)

	// (a) adversarial static: everything in one DBC, with each phase's
	// three variables strided 8 apart so every within-phase transition
	// travels far.
	a := trace.Analyze(s)
	all := a.ByFirstUse()
	bad := placement.NewEmpty(4)
	strided := make([]int, len(all))
	for i, v := range all {
		slot := (i%3)*8 + i/3
		strided[slot] = v
	}
	bad.DBC[0] = strided
	badStatic, err := RunSequence(cfg, s, bad)
	if err != nil {
		t.Fatal(err)
	}
	badSwap, err := RunSequenceSwapping(cfg, s, bad, SwapConfig{Enable: true})
	if err != nil {
		t.Fatal(err)
	}
	dmasr, _, err := testRegistry.Place(placement.StrategyDMASR, s, 4, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := RunSequence(cfg, s, dmasr)
	if err != nil {
		t.Fatal(err)
	}

	if badSwap.Counts.Shifts >= badStatic.Counts.Shifts {
		t.Errorf("swapping failed to improve the bad layout: %d vs %d",
			badSwap.Counts.Shifts, badStatic.Counts.Shifts)
	}
	if good.Counts.Shifts >= badStatic.Counts.Shifts {
		t.Errorf("DMA-SR failed to beat the bad layout: %d vs %d",
			good.Counts.Shifts, badStatic.Counts.Shifts)
	}
	// Static placement needs no extra writes; swapping does. That's the
	// paper's "no hardware overhead" argument in numbers.
	if badSwap.Counts.Writes <= good.Counts.Writes {
		t.Error("expected swap-induced write overhead over static placement")
	}
}

func TestSwapErrorPaths(t *testing.T) {
	cfg := cfg4(t)
	s := trace.NewSequence(0, 1)
	missing := &placement.Placement{DBC: [][]int{{0}}}
	if _, err := RunSequenceSwapping(cfg, s, missing, SwapConfig{Enable: true}); err == nil {
		t.Error("unplaced variable accepted")
	}
}

func TestSwapConservation(t *testing.T) {
	// Property-style: after any run, the dynamic layout must still be a
	// permutation (each access count conserved; verified indirectly via
	// total accesses).
	cfg := cfg4(t)
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		length := 10 + rng.Intn(100)
		vars := make([]int, length)
		for i := range vars {
			vars[i] = rng.Intn(n)
		}
		s := trace.NewSequence(vars...)
		a := trace.Analyze(s)
		p := placement.NewEmpty(4)
		for i, v := range a.ByFirstUse() {
			p.DBC[i%4] = append(p.DBC[i%4], v)
		}
		r, err := RunSequenceSwapping(cfg, s, p, SwapConfig{Enable: true})
		if err != nil {
			t.Fatal(err)
		}
		if r.Counts.Accesses() != int64(length)+2*r.Swaps {
			t.Fatalf("trial %d: access conservation broken: %d accesses, %d swaps",
				trial, r.Counts.Accesses(), r.Swaps)
		}
	}
}
