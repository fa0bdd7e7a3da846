package pool

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunPositionStable(t *testing.T) {
	for _, workers := range []int{0, 1, 4, 16} {
		out := make([]int, 100)
		err := Run(context.Background(), len(out), workers, func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 4, 7} {
		err := Run(context.Background(), 50, workers, func(_ context.Context, i int) error {
			if i%9 == 4 { // fails at 4, 13, 22, ...
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 4 failed" {
			t.Fatalf("workers=%d: err = %v, want job 4 failed", workers, err)
		}
	}
}

func TestRunCancellationSkipsJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := Run(ctx, 1000, 4, func(ctx context.Context, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not skip any jobs (ran %d)", n)
	}
}

func TestMapCollectsInOrder(t *testing.T) {
	out, err := Map(context.Background(), 20, 5, func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("v%d", i), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != fmt.Sprintf("v%d", i) {
			t.Fatalf("out[%d] = %q", i, v)
		}
	}
	if _, err := Map(context.Background(), 5, 2, func(_ context.Context, i int) (int, error) {
		return 0, fmt.Errorf("fail %d", i)
	}); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestRunExecutesEveryJobOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 37
		counts := make([]int32, n)
		err := Run(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestRunCancellationStopsDispatch(t *testing.T) {
	var ran int32
	err := Run(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		atomic.AddInt32(&ran, 1)
		if i == 0 {
			return errors.New("first job fails")
		}
		// Later jobs see the cancellation and bail out quickly.
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	})
	if err == nil || !strings.Contains(err.Error(), "first job fails") {
		t.Fatalf("got %v, want the root-cause error", err)
	}
	if n := atomic.LoadInt32(&ran); n == 1000 {
		t.Error("cancellation did not stop dispatch")
	}
}

func TestRunNilContextAndEmptyBatch(t *testing.T) {
	if err := Run(nil, 0, 4, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("nil ctx, empty batch: %v", err)
	}
	if err := Run(nil, 3, 2, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	out, err := Map(context.Background(), 0, 4, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty Map: %v, %v", out, err)
	}
}

func TestRunHonorsCallerContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 10, 4, func(_ context.Context, i int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
