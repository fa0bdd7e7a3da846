package placement

import (
	"context"
	"errors"
	"testing"

	"repro/internal/trace"
)

// cancellingReader yields accesses from a sequence and fires cancel
// after yielding n of them — cancellation lands mid-stream, between
// windows from PlaceStreamed's point of view.
type cancellingReader struct {
	inner  *trace.SliceReader
	n      int
	served int
	cancel context.CancelFunc
}

func (r *cancellingReader) Next() (trace.Access, error) {
	a, err := r.inner.Next()
	if err != nil {
		return a, err
	}
	r.served++
	if r.served == r.n {
		r.cancel()
	}
	return a, nil
}

// TestPlaceStreamedCancelReturnsBestSoFar pins the streaming pipeline's
// cancellation contract (the same one the GA has): a context cancelled
// mid-stream returns the stitched result through the last completed
// window TOGETHER WITH the context's error, and that partial equals a
// fresh run over exactly the prefix it covers.
func TestPlaceStreamedCancelReturnsBestSoFar(t *testing.T) {
	seq, err := trace.NewNamedSequence(
		"a", "b", "c", "a", "d", "b", "a", "c",
		"d", "b", "a", "d", "b", "c", "a", "d")
	if err != nil {
		t.Fatal(err)
	}
	const window = 4
	cfg := StreamConfig{NumVars: seq.NumVars(), DBCs: 2, Window: window, Strategy: StrategyDMAOFU, Registry: testRegistry}

	// Cancel while reading the third window: the ctx check at the top of
	// that window's iteration sees it after two windows completed.
	ctx, cancel := context.WithCancel(context.Background())
	r := &cancellingReader{inner: trace.NewSliceReader(seq), n: 2 * window, cancel: cancel}
	res, err := PlaceStreamed(ctx, r, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("cancelled run returned no best-so-far result")
	}
	if res.Windows != 2 || res.Accesses != 2*window {
		t.Fatalf("partial covers %d windows / %d accesses, want 2 / %d", res.Windows, res.Accesses, 2*window)
	}
	if res.Shifts != res.WindowShifts+res.MigrationShifts {
		t.Fatalf("partial Shifts=%d inconsistent with %d+%d", res.Shifts, res.WindowShifts, res.MigrationShifts)
	}

	// The partial must be the genuine prefix accounting: identical to an
	// uncancelled run over just those accesses.
	prefix := &trace.Sequence{Names: seq.Names, Accesses: seq.Accesses[:2*window]}
	want, werr := PlaceStreamed(context.Background(), trace.NewSliceReader(prefix), cfg)
	if werr != nil {
		t.Fatal(werr)
	}
	if res.Shifts != want.Shifts || res.MigratedVars != want.MigratedVars {
		t.Fatalf("partial (shifts=%d migrated=%d) != prefix run (shifts=%d migrated=%d)",
			res.Shifts, res.MigratedVars, want.Shifts, want.MigratedVars)
	}
}
