package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Hooks customizes how a batch resolves, prices and reports its cells.
// Registry is required: every cell's strategy name resolves in it, and a
// batch without one fails. The public session API (racetrack.Lab)
// supplies its instance registry, its content-addressed kernel cache and
// its progress callback, so all three reach every worker.
type Hooks struct {
	// Registry resolves the cells' strategy names.
	Registry *placement.Registry
	// Progress, when non-nil, is called from worker goroutines as cells
	// start and finish; it must be safe for concurrent use.
	Progress func(Event)
	// Kernel, when non-nil, supplies the cost kernel for a sequence
	// (called once per distinct sequence per batch that has a cell the
	// kernel serves — placement.UsesKernel — possibly concurrently). The
	// returned kernel must be bound to exactly the given sequence —
	// content-addressed caches rebind before returning. Nil means build
	// a fresh kernel per batch.
	Kernel func(*trace.Sequence) *placement.CostKernel
}

// errNoRegistry rejects hooks without a strategy registry.
var errNoRegistry = errors.New("engine: hooks have no strategy registry")

// Place resolves the named strategy in the hooks' registry and runs it —
// the single place the batch layer (and the eval drivers' inline probes)
// turn a strategy name into a placement.
func (h Hooks) Place(id placement.StrategyID, s *trace.Sequence, q int, opts placement.Options) (*placement.Placement, int64, error) {
	if h.Registry == nil {
		return nil, 0, errNoRegistry
	}
	return h.Registry.Place(id, s, q, opts)
}

// An Event reports the life cycle of one batch cell to the Progress hook:
// once with Done == false when a worker picks the cell up, and once with
// Done == true (carrying the shift count or the error) when it finishes.
type Event struct {
	// Index identifies the cell within its batch of Total cells.
	Index, Total int
	// Sequence, Strategy and DBCs describe the cell's work item.
	Sequence *trace.Sequence
	Strategy placement.StrategyID
	DBCs     int
	// Done distinguishes the started (false) from the finished (true)
	// notification.
	Done bool
	// Shifts is the cell's shift cost, valid when Done && Err == nil.
	Shifts int64
	// Err is the cell's failure, if any, on the finished notification.
	Err error
}

// A PlaceJob is one placement cell: run one registry strategy on one
// sequence at one DBC count. Options carries the full per-cell knob
// set, including the cost model: Options.Ports > 1 makes the cell
// optimize and report under the exact multi-port model.
type PlaceJob struct {
	Sequence *trace.Sequence
	Strategy placement.StrategyID
	DBCs     int
	Options  placement.Options
}

// PlaceOutcome is the result of one PlaceJob.
type PlaceOutcome struct {
	Placement *placement.Placement
	Shifts    int64
}

// BatchPlace runs every placement job on a worker pool of the given size
// and returns the outcomes in job order. Strategy names resolve in
// hooks.Registry. Results are identical for any worker count; the first
// failing job (lowest index) aborts the batch.
//
// Before dispatch, one placement.CostKernel is built (or taken from
// hooks.Kernel) per distinct sequence that has a cell the kernel serves
// (the GA family and the random walk at one port, see
// placement.UsesKernel), in parallel on the same worker budget, and
// threaded to those cells via Options.Kernel: the eval drivers submit
// the same sequence under many strategies and DBC counts, and the
// searches price thousands of placements each. The other cells place
// once and price by replay, which is cheaper than a build. Costs are
// bit-identical either way, so batch results do not depend on the
// sharing.
func BatchPlace(ctx context.Context, jobs []PlaceJob, workers int, hooks Hooks) ([]PlaceOutcome, error) {
	kernels, err := cellKernels(ctx, len(jobs), workers, hooks, func(i int) (*trace.Sequence, placement.StrategyID, placement.Options) {
		return jobs[i].Sequence, jobs[i].Strategy, jobs[i].Options
	})
	if err != nil {
		return nil, err
	}
	return Map(ctx, len(jobs), workers, func(ctx context.Context, i int) (PlaceOutcome, error) {
		j := jobs[i]
		if hooks.Progress != nil {
			hooks.Progress(Event{Index: i, Total: len(jobs), Sequence: j.Sequence, Strategy: j.Strategy, DBCs: j.DBCs})
		}
		if k := kernels[i]; k != nil {
			j.Options.Kernel = k
		}
		// Thread the batch context to the cell so long-running search
		// strategies (the GA) can honor cancellation mid-search.
		j.Options.Context = ctx
		p, c, err := hooks.Place(j.Strategy, j.Sequence, j.DBCs, j.Options)
		if hooks.Progress != nil {
			hooks.Progress(Event{Index: i, Total: len(jobs), Sequence: j.Sequence, Strategy: j.Strategy, DBCs: j.DBCs, Done: true, Shifts: c, Err: err})
		}
		if err != nil {
			return PlaceOutcome{}, fmt.Errorf("engine: cell %d (%s, q=%d): %w", i, j.Strategy, j.DBCs, err)
		}
		return PlaceOutcome{Placement: p, Shifts: c}, nil
	})
}

// cellKernels returns each cell's cost kernel: nil unless the kernel
// serves the cell's strategy under its options (placement.UsesKernel),
// and otherwise one kernel per distinct sequence (pointer identity),
// constructed concurrently through the same deterministic worker pool
// the batch itself runs on. When the hooks supply a kernel source (the
// session kernel cache), it is consulted instead of building from
// scratch. It also rejects hooks without a registry, before any cell
// runs.
func cellKernels(ctx context.Context, n, workers int, hooks Hooks, cell func(i int) (*trace.Sequence, placement.StrategyID, placement.Options)) ([]*placement.CostKernel, error) {
	if hooks.Registry == nil {
		return nil, errNoRegistry
	}
	index := make(map[*trace.Sequence]int, 8) // sequence -> distinct slot
	var distinct []*trace.Sequence
	slot := make([]int, n)
	for i := range slot {
		slot[i] = -1
		s, id, opts := cell(i)
		if st, ok := hooks.Registry.Lookup(id); s == nil || !ok || !placement.UsesKernel(st, opts) {
			continue
		}
		k, seen := index[s]
		if !seen {
			k = len(distinct)
			index[s] = k
			distinct = append(distinct, s)
		}
		slot[i] = k
	}
	source := hooks.Kernel
	if source == nil {
		source = placement.NewCostKernel
	}
	built, err := Map(ctx, len(distinct), workers, func(_ context.Context, i int) (*placement.CostKernel, error) {
		return source(distinct[i]), nil
	})
	if err != nil {
		return nil, err
	}
	kernels := make([]*placement.CostKernel, n)
	for i, k := range slot {
		if k >= 0 {
			kernels[i] = built[k]
		}
	}
	return kernels, nil
}

// A SimJob is one simulation cell: place one sequence with one registry
// strategy and replay it on the configured device.
type SimJob struct {
	Config   sim.Config
	Sequence *trace.Sequence
	Strategy placement.StrategyID
	Options  placement.Options
}

// BatchSimulate runs every simulation cell on a worker pool of the given
// size and returns the per-cell results in job order. Callers aggregate
// the returned slice in input order, so totals (including float latency
// and energy sums) are bit-identical for any worker count. As in
// BatchPlace, strategy names resolve in hooks.Registry and the cells a
// cost kernel serves share one per distinct sequence.
func BatchSimulate(ctx context.Context, jobs []SimJob, workers int, hooks Hooks) ([]sim.Result, error) {
	kernels, err := cellKernels(ctx, len(jobs), workers, hooks, func(i int) (*trace.Sequence, placement.StrategyID, placement.Options) {
		return jobs[i].Sequence, jobs[i].Strategy, jobs[i].Options
	})
	if err != nil {
		return nil, err
	}
	return Map(ctx, len(jobs), workers, func(ctx context.Context, i int) (sim.Result, error) {
		j := jobs[i]
		q := j.Config.Geometry.DBCs()
		if hooks.Progress != nil {
			hooks.Progress(Event{Index: i, Total: len(jobs), Sequence: j.Sequence, Strategy: j.Strategy, DBCs: q})
		}
		if k := kernels[i]; k != nil {
			j.Options.Kernel = k
		}
		j.Options.Context = ctx
		var r sim.Result
		p, _, err := hooks.Place(j.Strategy, j.Sequence, q, j.Options)
		if err == nil {
			r, err = sim.RunSequence(j.Config, j.Sequence, p)
		}
		if hooks.Progress != nil {
			hooks.Progress(Event{Index: i, Total: len(jobs), Sequence: j.Sequence, Strategy: j.Strategy, DBCs: q, Done: true, Shifts: r.Counts.Shifts, Err: err})
		}
		if err != nil {
			return sim.Result{}, fmt.Errorf("engine: cell %d (%s, q=%d): %w", i, j.Strategy, q, err)
		}
		return r, nil
	})
}
