package placement

import (
	"context"

	"repro/internal/rtm"
	"repro/internal/trace"
)

// StrategyID names one of the six placement strategies evaluated in the
// paper (section IV-A).
type StrategyID string

// The evaluated strategies.
const (
	// StrategyAFDOFU is the state-of-the-art baseline: AFD inter-DBC
	// distribution with order-of-first-use intra-DBC placement.
	StrategyAFDOFU StrategyID = "AFD-OFU"
	// StrategyDMAOFU is the paper's heuristic with OFU intra placement.
	StrategyDMAOFU StrategyID = "DMA-OFU"
	// StrategyDMAChen pairs the paper's heuristic with Chen's single-DBC
	// intra heuristic on the non-disjoint DBCs.
	StrategyDMAChen StrategyID = "DMA-Chen"
	// StrategyDMASR pairs the paper's heuristic with ShiftsReduce on the
	// non-disjoint DBCs.
	StrategyDMASR StrategyID = "DMA-SR"
	// StrategyGA is the paper's genetic algorithm.
	StrategyGA StrategyID = "GA"
	// StrategyRW is the random-walk search.
	StrategyRW StrategyID = "RW"
)

// AllStrategies lists the six strategies in the paper's presentation order.
func AllStrategies() []StrategyID {
	return []StrategyID{StrategyAFDOFU, StrategyDMAOFU, StrategyDMAChen, StrategyDMASR, StrategyGA, StrategyRW}
}

// HeuristicStrategies lists the fast (non-search) strategies.
func HeuristicStrategies() []StrategyID {
	return []StrategyID{StrategyAFDOFU, StrategyDMAOFU, StrategyDMAChen, StrategyDMASR}
}

// Options tunes strategy execution.
type Options struct {
	// Capacity is the word capacity per DBC; 0 disables capacity limits
	// (the paper's evaluation does not enforce them).
	Capacity int
	// GA configures the genetic algorithm; zero value means
	// DefaultGAConfig with SeedHeuristics.
	GA GAConfig
	// RW configures the random walk; zero value means DefaultRWConfig.
	RW RWConfig
	// DisableGASeeding turns off the heuristic seeding of the GA
	// strategies: by default they inject the AFD/DMA placements into
	// the initial population, as the paper describes. Set it for
	// cold-start ablations.
	DisableGASeeding bool
	// Kernel optionally carries a pre-built cost kernel for the sequence
	// being placed. Strategies evaluate full placements through it in
	// O(nnz) instead of replaying the access stream; the engine batch
	// layer and the session kernel cache thread one here for the
	// strategies that search with it (UsesKernel), at most one build per
	// distinct sequence in a batch. A kernel built from a different
	// sequence (pointer identity) is ignored. Results are bit-identical
	// either way.
	Kernel *CostKernel
	// Ports selects the cost model every strategy optimizes and reports
	// under: 0 or 1 is the paper's single-port |x−y| model; larger
	// values price placements with the exact multi-port nearest-port
	// arithmetic of PortModel, so the objective matches what
	// sim.RunSequence later replays on a PortsPerTrack > 1 geometry.
	// The search strategies (GA, RW, DMA-2opt, GA-2opt) then also
	// *search* under that objective; the constructive heuristics (AFD,
	// DMA, the intra orderings) are cost-model-free and only have their
	// result priced by it.
	Ports int
	// PortDomains is the track length (domain count) the evenly-spread
	// port layout derives from when Ports > 1. 0 derives it from the
	// deterministic iso-capacity device rule for the DBC count being
	// placed (rtm.IsoCapacityGeometry — the Table I track length for
	// Table I DBC counts), which keeps placement, evaluation and
	// simulation on one geometry. Callers with an explicit device set
	// it to Geometry.WordsPerDBC().
	PortDomains int
	// Cost, when non-nil, selects the objective the placement is priced
	// under at the reporting boundaries (session results, portfolio
	// entries, streamed totals). Every constructible objective is
	// strictly monotone in the shift count for a fixed (sequence,
	// geometry, Table I config) — NewCostModel enforces it — so the
	// search layers keep optimizing the raw int64 shift cost and their
	// trajectories are bit-identical across objectives; the model only
	// prices the output. nil is the raw shift objective (the paper's).
	Cost *CostModel
	// Context, when non-nil, is consulted by the long-running search
	// strategies: the GA checks it between generations (and between
	// island migration rounds), so a deadline or cancellation
	// interrupts the search instead of being ignored. The engine batch
	// layer and the session API thread their call context here; nil
	// means run to completion.
	//rtmlint:ctxcheck-ok Options is a per-call parameter object, not long-lived state; the call context rides it through the strategy interface
	Context context.Context
}

// ctx returns the options' context, never nil.
func (o Options) ctx() context.Context {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	return ctx
}

// PortModelFor resolves the options' effective multi-port cost model
// for a placement into q DBCs: nil for the single-port model, otherwise
// a PortModel whose layout derives from PortDomains (or, when 0, from
// the iso-capacity device rule for q DBCs).
func (o Options) PortModelFor(q int) (*PortModel, error) {
	if o.Ports <= 1 {
		return nil, nil
	}
	domains := o.PortDomains
	if domains == 0 {
		g, err := rtm.IsoCapacityGeometry(q, o.Ports)
		if err != nil {
			return nil, err
		}
		domains = g.WordsPerDBC()
	}
	return NewPortModel(domains, o.Ports)
}

// costOf prices a freshly computed placement into q DBCs under the
// options' cost model: the exact multi-port replay when Ports > 1,
// otherwise the shared kernel when the caller supplied one for this
// exact sequence, otherwise the replay oracle. The single-port paths
// return bit-identical costs.
func costOf(s *trace.Sequence, p *Placement, q int, opts Options) (int64, error) {
	pm, err := opts.PortModelFor(q)
	if err != nil {
		return 0, err
	}
	if pm != nil {
		return PortCost(s, p, pm)
	}
	if k := opts.Kernel; k != nil && k.Sequence() == s {
		return k.Evaluate(p)
	}
	return ShiftCost(s, p)
}

// heuristicSeeds produces the heuristic placements used to seed the GA:
// the HeuristicStrategies, in that order, built directly through their
// builtins' construct, so seeding neither consults a registry nor
// prices placements the GA prices itself. With a
// batch-shared kernel at hand the seeds are memoized per (sequence, DBC
// count, capacity): every GA variant cell of an eval batch would
// otherwise recompute the same four heuristic placements.
func heuristicSeeds(s *trace.Sequence, q int, opts Options) ([]*Placement, error) {
	compute := func() ([]*Placement, error) {
		builtins := builtinStrategies()
		var seeds []*Placement
		for _, id := range HeuristicStrategies() {
			for _, st := range builtins {
				h, ok := st.(constructive)
				if !ok || st.Name() != string(id) {
					continue
				}
				p, err := h.construct(s, q, opts)
				if err != nil {
					return nil, err
				}
				seeds = append(seeds, p)
			}
		}
		return seeds, nil
	}
	if k := opts.Kernel; k != nil && k.Sequence() == s {
		return k.cachedSeeds(q, opts.Capacity, compute)
	}
	return compute()
}
