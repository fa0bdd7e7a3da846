package placement

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/trace"
)

// streamSeq parses a text trace; text-parsed variables are numbered by
// first appearance, so the per-window compaction of a single whole-trace
// window is the identity and the window=∞ invariant is directly
// comparable against placing the sequence itself.
func streamSeq(t *testing.T, text string) *trace.Sequence {
	t.Helper()
	b, err := trace.ParseString("stream", text)
	if err != nil {
		t.Fatal(err)
	}
	return b.Sequences[0]
}

// TestPlaceStreamedWindowInfinity pins the degenerate-window invariant:
// with one window covering the whole stream there are no migrations and
// the stitched total equals the whole-trace placement cost exactly.
func TestPlaceStreamedWindowInfinity(t *testing.T) {
	s := streamSeq(t, "a b a c b a d c a b d d a c a b")
	for _, strat := range []StrategyID{StrategyDMAOFU, StrategyAFDOFU, StrategyDMASR} {
		for _, q := range []int{1, 2, 4} {
			p, want, err := testRegistry.Place(strat, s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), StreamConfig{
				Registry: testRegistry,
				NumVars:  s.NumVars(), DBCs: q, Window: s.Len() + 100, Strategy: strat,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Windows != 1 || res.MigrationShifts != 0 || res.MigratedVars != 0 {
				t.Fatalf("%s q=%d: single-window run reports %d windows, %d migration shifts",
					strat, q, res.Windows, res.MigrationShifts)
			}
			if res.Shifts != want {
				t.Fatalf("%s q=%d: stitched %d, whole-trace placement %d (placement %v)",
					strat, q, res.Shifts, want, p)
			}
			if res.Accesses != int64(s.Len()) || res.MaxWindowVars != s.NumVars() {
				t.Fatalf("%s q=%d: accounting %+v", strat, q, res)
			}
		}
	}
}

// TestPlaceStreamedStitchingByHand verifies the boundary model against a
// worked example small enough to price on paper.
//
// Trace "a b b a", window 2, q = 1, DMA-OFU (order of first use):
//
//	window 0 = [a b]  → layout a@0, b@1; replay: a cold, b |1−0| = 1.
//	window 1 = [b a]  → compacted first-use order flips: b@0, a@1.
//	  migrations (ascending var order, port at offset 1 after window 0):
//	    a: read @ old 0 (|0−1| = 1), write @ new 1 (|1−0| = 1)
//	    b: read @ old 1 (|1−1| = 0), write @ new 0 (|0−1| = 1)
//	  replay: b@0 (|0−0| = 0), a@1 (|1−0| = 1).
//
// Totals: window shifts 1+1 = 2, migration shifts 3, grand total 5.
func TestPlaceStreamedStitchingByHand(t *testing.T) {
	s := streamSeq(t, "a b b a")
	var events []StreamWindowEvent
	res, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), StreamConfig{
		Registry: testRegistry,
		NumVars:  2, DBCs: 1, Window: 2, Strategy: StrategyDMAOFU,
		Progress: func(ev StreamWindowEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tally: the trace's 4 reads plus the 2 migrations' read+write pairs
	// — Reads 4+2 = 6, Writes 0+2 = 2.
	want := &StreamResult{
		Accesses: 4, Windows: 2,
		Shifts: 5, WindowShifts: 2, MigrationShifts: 3,
		MigratedVars: 2, Reads: 6, Writes: 2, MaxWindowVars: 2,
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("stitched result %+v, want %+v", res, want)
	}
	if len(events) != 2 || events[0].Window != 0 || events[1].Window != 1 ||
		events[1].Accesses != 4 || events[1].Shifts != 5 {
		t.Fatalf("progress events %+v", events)
	}
}

// TestPlaceStreamedPricesCost pins the boundary pricing: a streamed run
// with a cost model configured reports exactly the model's price of its
// stitched tally, and the stitched shift accounting is bit-identical to
// a model-free run (the model only prices, never steers).
func TestPlaceStreamedPricesCost(t *testing.T) {
	s := streamSeq(t, "a b b a! c a b! c")
	params, err := energy.ForDBCs(4)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCostModel(ObjectiveEnergy, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{NumVars: 3, DBCs: 2, Window: 3, Strategy: StrategyDMAOFU, Registry: testRegistry}
	plain, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Options.Cost = m
	priced, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if priced.Cost == nil {
		t.Fatal("no cost priced with a model configured")
	}
	want := m.Price(Tally{Shifts: plain.Shifts, Reads: plain.Reads, Writes: plain.Writes})
	if *priced.Cost != want {
		t.Errorf("priced %+v, want %+v", *priced.Cost, want)
	}
	priced.Cost = nil
	if !reflect.DeepEqual(plain, priced) {
		t.Errorf("model changed the stitched accounting: %+v vs %+v", plain, priced)
	}
}

// TestPlaceStreamedDeterministic pins that equal streams and configs
// stitch to identical results, for several window sizes, and that the
// accounting identity Shifts = WindowShifts + MigrationShifts holds.
func TestPlaceStreamedDeterministic(t *testing.T) {
	cfg := trace.SynthConfig{Vars: 120, Accesses: 20000, Seed: 17}
	for _, window := range []int{0, 512, 1999, 20000} {
		var got [2]*StreamResult
		for i := range got {
			gen, err := trace.NewSynthReader(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got[i], err = PlaceStreamed(context.Background(), gen, StreamConfig{
				Registry: testRegistry,
				NumVars:  cfg.Vars, DBCs: 4, Window: window, Strategy: StrategyDMAOFU,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("window %d: runs differ: %+v vs %+v", window, got[0], got[1])
		}
		r := got[0]
		if r.Shifts != r.WindowShifts+r.MigrationShifts {
			t.Fatalf("window %d: accounting identity broken: %+v", window, r)
		}
		if r.Accesses != cfg.Accesses {
			t.Fatalf("window %d: consumed %d of %d accesses", window, r.Accesses, cfg.Accesses)
		}
		w := window
		if w <= 0 {
			w = DefaultStreamWindow
		}
		wantWindows := int((cfg.Accesses + int64(w) - 1) / int64(w))
		if r.Windows != wantWindows {
			t.Fatalf("window %d: %d windows, want %d", window, r.Windows, wantWindows)
		}
		if r.MaxWindowVars > cfg.Vars {
			t.Fatalf("window %d: MaxWindowVars %d exceeds universe %d", window, r.MaxWindowVars, cfg.Vars)
		}
	}
}

func TestPlaceStreamedErrors(t *testing.T) {
	s := streamSeq(t, "a b a")
	ctx := context.Background()
	base := StreamConfig{NumVars: 2, DBCs: 2, Strategy: StrategyDMAOFU, Registry: testRegistry}

	bad := base
	bad.DBCs = 0
	if _, err := PlaceStreamed(ctx, trace.NewSliceReader(s), bad); err == nil {
		t.Fatal("zero DBCs accepted")
	}
	bad = base
	bad.Strategy = ""
	if _, err := PlaceStreamed(ctx, trace.NewSliceReader(s), bad); err == nil {
		t.Fatal("empty strategy accepted")
	}
	bad = base
	bad.Strategy = "no-such-strategy"
	if _, err := PlaceStreamed(ctx, trace.NewSliceReader(s), bad); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad = base
	bad.Options.Ports = 2
	if _, err := PlaceStreamed(ctx, trace.NewSliceReader(s), bad); err == nil {
		t.Fatal("multi-port stream accepted")
	}
	bad = base
	bad.NumVars = 1 // stream accesses variable 1
	if _, err := PlaceStreamed(ctx, trace.NewSliceReader(s), bad); err == nil {
		t.Fatal("out-of-universe access accepted")
	}

	boom := errors.New("truncated tape")
	if _, err := PlaceStreamed(ctx, &failingReader{n: 2, err: boom}, StreamConfig{
		Registry: testRegistry,
		NumVars:  1, DBCs: 1, Strategy: StrategyDMAOFU,
	}); !errors.Is(err, boom) {
		t.Fatalf("reader error not propagated: %v", err)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := PlaceStreamed(cancelled, trace.NewSliceReader(s), base); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context not honored: %v", err)
	}

	// An empty stream is a valid zero result, not an error.
	res, err := PlaceStreamed(ctx, trace.NewSliceReader(&trace.Sequence{}), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accesses != 0 || res.Windows != 0 || res.Shifts != 0 {
		t.Fatalf("empty stream result %+v", res)
	}
}

// TestPlaceStreamedMigrationVsWhole sanity-checks the economics on a
// loop-structured synthetic stream: windowing changes the total, every
// component is non-negative, and migrations only appear when there is
// more than one window.
func TestPlaceStreamedMigrationVsWhole(t *testing.T) {
	cfg := trace.SynthConfig{Vars: 60, Accesses: 6000, Seed: 29}
	gen, err := trace.NewSynthReader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windowed, err := PlaceStreamed(context.Background(), gen, StreamConfig{
		Registry: testRegistry,
		NumVars:  cfg.Vars, DBCs: 4, Window: 500, Strategy: StrategyDMAOFU,
	})
	if err != nil {
		t.Fatal(err)
	}
	if windowed.Windows != 12 {
		t.Fatalf("expected 12 windows, got %d", windowed.Windows)
	}
	if windowed.WindowShifts <= 0 {
		t.Fatalf("degenerate stream: %+v", windowed)
	}
	if windowed.MigrationShifts < 0 || windowed.MigratedVars < 0 {
		t.Fatalf("negative migration accounting: %+v", windowed)
	}
}
