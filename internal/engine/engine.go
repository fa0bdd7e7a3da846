// Package engine is the shared concurrent experiment engine (see
// DESIGN.md §4). Every batch computation in the repository — the eval
// drivers behind the paper's figures, the public PlaceBenchmark API and
// the CLI tools — fans work out through the same deterministic worker
// pool instead of hand-rolling goroutine plumbing.
//
// The pool itself lives in internal/pool (a leaf package, so the
// placement layer's island GA and portfolio race can share it without an
// import cycle); Run and Map here are thin aliases kept for the engine's
// callers. The determinism contract is the pool's: results are
// position-stable and independent of worker count and scheduling.
package engine

import (
	"context"

	"repro/internal/pool"
)

// Run executes fn(ctx, i) for every i in [0, n) on up to `workers`
// goroutines (0 or 1 means sequential; workers are additionally capped at
// n). On failure it returns the error of the lowest-index failing job,
// so error reporting does not flap with goroutine completion order.
//
// Cancellation: the supplied context is propagated to every job, and the
// first failure cancels the derived context, so long-running jobs can
// bail out early and undispatched jobs are skipped. Run itself stops
// dispatching once the context is done and returns ctx.Err() when no job
// error outranks it.
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	return pool.Run(ctx, n, workers, fn)
}

// Map runs fn over [0, n) with Run and collects the results in input
// order. On error the partial results are discarded.
func Map[T any](ctx context.Context, n, workers int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return pool.Map(ctx, n, workers, fn)
}
