package racetrack

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/placement"
)

// TestPlacePartialOnDeadline pins Lab.Place's best-so-far contract: a
// strategy that returns its best placement together with the context's
// error yields a non-nil PlaceResult AND the error, with the shift
// accounting verified against the real breakdown.
func TestPlacePartialOnDeadline(t *testing.T) {
	blocker := func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error) {
		p, c, err := testRegistry.Place(placement.StrategyDMAOFU, s, q, placement.Options{Capacity: opts.Capacity})
		if err != nil {
			return nil, 0, err
		}
		<-opts.Context.Done()
		return p, c, opts.Context.Err()
	}
	lab, err := New(WithStrategy("blocker", blocker))
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSequence("a b a b c a c a d d a")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	res, err := lab.Place(ctx, s, PlaceOptions{Strategy: "blocker"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res == nil {
		t.Fatal("deadline-bounded Place returned no best-so-far result")
	}
	want, werr := lab.Place(context.Background(), s, PlaceOptions{Strategy: DMAOFU})
	if werr != nil {
		t.Fatal(werr)
	}
	if res.Shifts != want.Shifts {
		t.Fatalf("partial Shifts = %d, want %d (the strategy's best-so-far was DMA-OFU's result)", res.Shifts, want.Shifts)
	}
}
