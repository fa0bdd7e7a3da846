// Package pool is the repository's deterministic worker pool — the one
// concurrency primitive every concurrent layer builds on (see DESIGN.md
// §4 and §11). The experiment engine fans batch jobs through it, and the
// placement package drives island-model GA rounds and strategy-portfolio
// races with it; keeping the pool in a leaf package lets placement use
// it without importing the engine (which imports placement).
//
// Determinism contract: Run executes one job per index of [0, n) on up to
// `workers` goroutines; callers write results only to their own index of
// pre-sized slices, so results are position-stable and independent of the
// worker count and of goroutine scheduling. Aggregations performed after
// Run returns therefore see results in input order.
package pool

import (
	"context"
	"errors"
	"sync"
)

// Run executes fn(ctx, i) for every i in [0, n) on up to `workers`
// goroutines (0 or 1 means sequential; workers are additionally capped at
// n). On failure it returns the error of the lowest-index failing job,
// so error reporting does not flap with goroutine completion order:
// jobs are dispatched in index order, and a dispatched job is skipped
// only once the caller's context is done or a job at a lower index has
// failed, so every job below the first failure still runs.
//
// Cancellation: the supplied context is propagated to every job, and the
// first failure cancels the derived context, so long-running jobs can
// bail out early and undispatched jobs are skipped. Run itself stops
// dispatching once the context is done and returns ctx.Err() when no job
// error outranks it.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return ctx.Err()
	}
	parent := ctx
	ctx, cancel := context.WithCancel(parent)
	defer cancel()

	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errI = -1 // index of the lowest failing job
		errV error
	)
	fail := func(i int, err error) {
		mu.Lock()
		// A job aborted by our own cancellation is a secondary failure;
		// never let it mask the root cause.
		if !(errV != nil && errors.Is(err, context.Canceled)) && (errI < 0 || i < errI) {
			errI, errV = i, err
		}
		mu.Unlock()
		cancel()
	}
	failedBelow := func(i int) bool {
		mu.Lock()
		defer mu.Unlock()
		return errI >= 0 && errI < i
	}
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if parent.Err() != nil || failedBelow(i) {
					// The caller cancelled, or a lower-index job already
					// owns the error: drain the queue without running
					// the job. A job below the recorded failure still
					// runs, since its error would outrank it.
					continue
				}
				if err := fn(ctx, i); err != nil {
					fail(i, err)
				}
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	if errV != nil {
		return errV
	}
	return ctx.Err()
}

// Map runs fn over [0, n) with Run and collects the results in input
// order. On error the partial results are discarded.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Run(ctx, n, workers, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
