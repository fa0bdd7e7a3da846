package placement

import (
	"repro/internal/trace"
)

// PlaceDMATwoOpt is the two-opt-refined DMA strategy: the paper's DMA
// inter-DBC heuristic with a ShiftsReduce intra ordering on the
// non-disjoint DBCs, polished by the TwoOpt local search (see twoopt.go).
// Since the delta-evaluator rewrite the polish pass prices each candidate
// move in O(freq) instead of replaying the DBC's restricted subsequence,
// so the strategy stays affordable on long traces (BenchmarkTwoOptDelta);
// when the caller passes a cost kernel the per-DBC evaluator setup is
// derived from it in O(nnz) instead of a replay. The engine and the Lab
// pass none: one replay-built evaluator per DBC is cheaper than a kernel
// build (see DESIGN.md §8). TwoOpt can only keep or improve the intra
// cost, so this strategy is never worse than DMA-SR on the cost model.
// It is not one of the paper's six evaluated strategies; it is a builtin
// (builtinStrategies), seeded into every Registry as "DMA-2opt".
func PlaceDMATwoOpt(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	a := trace.Analyze(s)
	r, err := DMA(a, q, opts.Capacity)
	if err != nil {
		return nil, 0, err
	}
	kern := opts.Kernel
	if kern == nil || kern.Sequence() != s {
		kern = nil
	}
	pm, err := opts.PortModelFor(q)
	if err != nil {
		return nil, 0, err
	}
	// Under a multi-port objective the single-port polish still runs
	// first (it is the cheap surrogate), then a port-aware 2-opt sweep
	// polishes under the true objective. Because the port pass starts
	// from exactly the order the single-port pipeline produces and only
	// accepts improving moves, the multi-port DMA-2opt placement never
	// scores worse on the device than the single-port one replayed on
	// it — the monotonicity the ports-sweep experiment asserts.
	refined := func(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
		out := twoOptWithKernel(ShiftsReduce(vars, s, a), s, kern)
		if pm != nil {
			out = twoOptPort(out, s, pm)
		}
		return out
	}
	p := ApplyIntra(r.Placement, r.DisjointDBCs, q, refined, s, a)
	c, err := costOf(s, p, q, opts)
	return p, c, err
}
