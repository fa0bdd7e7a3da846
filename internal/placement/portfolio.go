package placement

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/pool"
	"repro/internal/trace"
)

// Strategy-portfolio racing (DESIGN.md §11): run a set of registry
// strategies concurrently on one sequence, sharing a single CostKernel
// build, and let the running incumbent cost prune work — a constructive
// heuristic's result is priced with bounded evaluation against the
// incumbent and abandons the replay as soon as its partial sum proves it
// cannot win. The race's winner and cost are deterministic: abandonment
// only ever discards strictly-worse candidates, so the surviving exact
// costs — and the first-in-portfolio-order tie break over them — are
// independent of goroutine scheduling.

// PortfolioConfig configures RacePortfolio.
type PortfolioConfig struct {
	// Strategies lists the racing strategies in portfolio order (the
	// deterministic tie-break order). Empty means every strategy of the
	// registry, in Registered() order.
	Strategies []StrategyID
	// Registry resolves the strategy names. Required.
	Registry *Registry
	// Workers bounds the number of concurrently racing strategies
	// (0 or 1 = sequential).
	Workers int
	// Options is passed to every strategy. The race resolves the cost
	// model once: the kernel is built (or reused) up front and shared,
	// and Options.Context is overridden with the race's context.
	Options Options
	// Progress, when non-nil, receives a start and a finish event per
	// strategy. Invocations are serialized by the race; the callback
	// needs no locking of its own.
	Progress func(PortfolioEvent)
}

// PortfolioEvent reports one strategy starting or finishing inside a
// race.
type PortfolioEvent struct {
	Strategy StrategyID
	Index    int // position in the portfolio order
	Total    int
	Done     bool
	// Cost and Abandoned mirror the strategy's PortfolioEntry and are
	// meaningful only on the finish event.
	Cost      int64
	Abandoned bool
}

// PortfolioEntry is one strategy's outcome in a finished race. For an
// abandoned strategy, Cost is only a certificate that its true cost
// exceeds the race winner's — the exact value depends on where the
// bounded replay stopped, which may vary with scheduling; Winner and the
// winning Cost never do.
type PortfolioEntry struct {
	Strategy  StrategyID
	Cost      int64
	Abandoned bool
}

// PortfolioResult reports a finished race.
type PortfolioResult struct {
	// Winner is the first strategy in portfolio order whose exact cost
	// equals the best exact cost found.
	Winner    StrategyID
	Placement *Placement
	Cost      int64
	// Entries holds every strategy's outcome in portfolio order.
	Entries []PortfolioEntry
}

// constructive is the optional fast path of the race and of windowed
// placement: a strategy that can return its placement without pricing
// it, so the race can price it with bounded evaluation against the
// incumbent instead of paying a full replay for a result that cannot
// win, and PlaceStreamed can leave the pricing to its stitching replay.
// The constructive heuristics (AFD and the DMA family) implement it;
// search strategies price candidates internally and run their normal
// Place.
type constructive interface {
	construct(s *trace.Sequence, q int, opts Options) (*Placement, error)
}

// RacePortfolio races the configured strategies on one sequence placed
// into q DBCs and returns the best result. The context cancels the race
// (and, through Options.Context, the strategies' own search loops); on
// cancellation the partial race is discarded and the context's error
// returned.
func RacePortfolio(ctx context.Context, s *trace.Sequence, q int, cfg PortfolioConfig) (*PortfolioResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	reg := cfg.Registry
	if reg == nil {
		return nil, fmt.Errorf("placement: portfolio: no registry")
	}
	ids := cfg.Strategies
	if len(ids) == 0 {
		ids = reg.Registered()
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("placement: portfolio has no strategies")
	}

	// Resolve the cost model once for the whole race: every strategy
	// shares one kernel build (the kernel is immutable and safe for
	// concurrent use), and the bounded pricing below follows the same
	// objective the strategies report under.
	opts := cfg.Options
	pm, err := opts.PortModelFor(q)
	if err != nil {
		return nil, err
	}
	opts.Kernel = kernelFor(opts.Kernel, s)

	var progressMu sync.Mutex
	emit := func(ev PortfolioEvent) {
		if cfg.Progress == nil {
			return
		}
		progressMu.Lock()
		cfg.Progress(ev)
		progressMu.Unlock()
	}

	// incumbent is the best exact cost any strategy has proven so far;
	// it only ever decreases, so a bounded replay that exceeds it can
	// abandon safely no matter how the remaining strategies turn out.
	// The incumbent stays an int64 shift count even when Options.Cost
	// carries a derived objective: every constructible objective is
	// strictly monotone in shifts (costmodel.go), so the shift bound IS
	// the scalarized bound — pruning against it abandons exactly the
	// strategies whose scalarized cost would lose, and the winner is the
	// scalarized argmin. Pricing into energy/runtime happens once at the
	// reporting boundary, not per candidate.
	var incumbent atomic.Int64
	incumbent.Store(math.MaxInt64)

	entries := make([]PortfolioEntry, len(ids))
	placements := make([]*Placement, len(ids))
	err = pool.Run(ctx, len(ids), cfg.Workers, func(ctx context.Context, i int) error {
		id := ids[i]
		st, ok := reg.Lookup(id)
		if !ok {
			return fmt.Errorf("placement: unknown strategy %q", id)
		}
		emit(PortfolioEvent{Strategy: id, Index: i, Total: len(ids)})
		o := opts
		o.Context = ctx
		p, cost, abandoned, err := raceOne(s, q, st, o, pm, &incumbent)
		if err != nil {
			return fmt.Errorf("placement: portfolio strategy %q: %w", id, err)
		}
		if !abandoned {
			for {
				cur := incumbent.Load()
				if cost >= cur || incumbent.CompareAndSwap(cur, cost) {
					break
				}
			}
		}
		placements[i] = p
		entries[i] = PortfolioEntry{Strategy: id, Cost: cost, Abandoned: abandoned}
		emit(PortfolioEvent{Strategy: id, Index: i, Total: len(ids), Done: true, Cost: cost, Abandoned: abandoned})
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &PortfolioResult{Winner: "", Cost: math.MaxInt64, Entries: entries}
	for i, e := range entries {
		if !e.Abandoned && e.Cost < res.Cost {
			res.Winner, res.Cost, res.Placement = e.Strategy, e.Cost, placements[i]
		}
	}
	return res, nil
}

// raceOne runs one strategy under the race. Constructive strategies are
// priced with bounded evaluation: the bound is incumbent+1, so a
// strategy is only abandoned when its cost provably exceeds the
// incumbent — an exact tie still prices fully, keeping the
// first-in-order tie break deterministic.
func raceOne(s *trace.Sequence, q int, st Strategy, opts Options, pm *PortModel, incumbent *atomic.Int64) (*Placement, int64, bool, error) {
	h, ok := st.(constructive)
	if !ok {
		p, cost, err := st.Place(s, q, opts)
		return p, cost, false, err
	}
	p, err := h.construct(s, q, opts)
	if err != nil {
		return nil, 0, false, err
	}
	bound := int64(math.MaxInt64)
	if inc := incumbent.Load(); inc < math.MaxInt64 {
		bound = inc + 1
	}
	cost, err := boundedCost(s, p, q, opts, pm, bound)
	if err != nil {
		return nil, 0, false, err
	}
	return p, cost, cost >= bound, nil
}

// boundedCost prices a placement under the options' cost model with an
// abort threshold: exact below bound, a certificate of cost >= bound at
// or above it. It is costOf with early termination.
func boundedCost(s *trace.Sequence, p *Placement, q int, opts Options, pm *PortModel, bound int64) (int64, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	if k := opts.Kernel; pm == nil && k != nil && k.Sequence() == s {
		return k.CostBounded(l, bound), nil
	}
	// The builtins' construct places every variable, so no access is
	// unplaced.
	sc := trackPool.Get().(*trackScratch)
	c, _ := replayTotal(s, l, pm, sc.cold(q), bound)
	trackPool.Put(sc)
	return c, nil
}
