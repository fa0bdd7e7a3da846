package racetrack

import (
	"bytes"
	"context"
	"testing"
)

// TestPlaceStreamWindowInfinity pins the public invariant: streaming a
// sequence through PlaceStream with a window covering the whole stream
// costs exactly what Lab.Place reports for the same strategy.
func TestPlaceStreamWindowInfinity(t *testing.T) {
	lab, err := New()
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSequence("a b a b c a c a d d a c b d a")
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Place(context.Background(), s, PlaceOptions{Strategy: DMAOFU})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.PlaceStream(context.Background(), s.NumVars(), NewSequenceReader(s), PlaceOptions{
		Strategy: DMAOFU, Window: s.Len(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifts != want.Shifts || res.MigrationShifts != 0 || res.Windows != 1 {
		t.Fatalf("streamed %+v, in-RAM cost %d", res, want.Shifts)
	}
}

// TestPlaceStreamProgressAndDefaults exercises Lab defaults (strategy,
// DBC count) plus the per-window progress callback, which observes the
// run without changing it.
func TestPlaceStreamProgressAndDefaults(t *testing.T) {
	var windows int
	lab, err := New(WithProgress(func(ev ProgressEvent) {
		if ev.Done {
			windows++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewSynthReader(SynthConfig{Vars: 50, Accesses: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := lab.PlaceStream(context.Background(), 50, gen, PlaceOptions{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 4 || windows != 4 {
		t.Fatalf("4 windows expected, result %d, progress %d", res.Windows, windows)
	}

	gen2, err := NewSynthReader(SynthConfig{Vars: 50, Accesses: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := newLab(t).PlaceStream(context.Background(), 50, gen2, PlaceOptions{Window: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Shifts != res.Shifts {
		t.Fatalf("a Lab without progress diverged: %d vs %d", res2.Shifts, res.Shifts)
	}
}

// TestBinaryTracePublicRoundTrip drives the exported binary-format
// surface end to end: encode, eager decode, and a streaming scan fed
// into PlaceStream.
func TestBinaryTracePublicRoundTrip(t *testing.T) {
	b, err := ParseBenchmark("pub", "seq f\na b a c! b a\nseq g\nx y x y\n")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinaryBenchmark(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryBenchmark("pub", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sequences) != 2 || !got.Sequences[0].ContentEqual(b.Sequences[0]) {
		t.Fatalf("binary round trip changed the benchmark")
	}

	br, err := NewBinaryTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := br.ScanSequence()
	if err != nil {
		t.Fatal(err)
	}
	lab := newLab(t)
	res, err := lab.PlaceStream(context.Background(), sc.NumVars(), sc, PlaceOptions{Strategy: DMAOFU})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.Place(context.Background(), b.Sequences[0], PlaceOptions{Strategy: DMAOFU})
	if err != nil {
		t.Fatal(err)
	}
	if res.Shifts != want.Shifts {
		t.Fatalf("scanned stream cost %d, in-RAM cost %d", res.Shifts, want.Shifts)
	}

	// The scanner is an AccessReader whose EOF certifies the fingerprint;
	// a second ScanSequence must pick up the next sequence cleanly.
	if _, err := br.ScanSequence(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCostKernelPublic pins the exported streaming kernel
// constructor against the in-RAM one.
func TestStreamCostKernelPublic(t *testing.T) {
	s, err := ParseSequence("a b a b c a c a")
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewStreamCostKernel(s.NumVars(), NewSequenceReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if k.Sequence() != nil {
		t.Fatal("streamed kernel claims a bound sequence")
	}
	p := &Placement{DBC: [][]int{{0, 1, 2}}}
	want, err := NewCostKernel(s).Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Evaluate(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("streamed kernel %d, in-RAM kernel %d", got, want)
	}
}

// TestPlaceStreamMultiPort pins streamed placement under the
// multi-port model at the public layer: on a two-port Lab a window
// covering the stream costs exactly what Lab.Place reports (the
// whole-trace PortCost, which the device simulation replays), and a
// windowed run still splits its total into window and migration shifts.
func TestPlaceStreamMultiPort(t *testing.T) {
	lab, err := New(WithDevice(4), WithPorts(2))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSequence("a b a c b a d c a b e d a c e b a d e c a b a f! e f c")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range []Strategy{AFDOFU, DMAOFU, DMASR, DMA2Opt} {
		want, err := lab.Place(ctx, s, PlaceOptions{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := lab.Simulate(ctx, s, want.Placement)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := lab.PlaceStream(ctx, s.NumVars(), NewSequenceReader(s), PlaceOptions{Strategy: strat, Window: s.Len()})
		if err != nil {
			t.Fatal(err)
		}
		if whole.Shifts != want.Shifts || whole.Shifts != sim.Counts.Shifts || whole.Windows != 1 || whole.MigrationShifts != 0 {
			t.Fatalf("%s: streamed %+v, Lab.Place %d shifts, device %d", strat, whole, want.Shifts, sim.Counts.Shifts)
		}
		windowed, err := lab.PlaceStream(ctx, s.NumVars(), NewSequenceReader(s), PlaceOptions{Strategy: strat, Window: 5})
		if err != nil {
			t.Fatal(err)
		}
		if windowed.Windows != 6 || windowed.Shifts != windowed.WindowShifts+windowed.MigrationShifts {
			t.Fatalf("%s: windowed run %+v", strat, windowed)
		}
	}
}
