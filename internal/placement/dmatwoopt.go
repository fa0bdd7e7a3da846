package placement

import (
	"repro/internal/trace"
)

// PlaceDMATwoOpt is the two-opt-refined DMA strategy: the paper's DMA
// inter-DBC heuristic with a ShiftsReduce intra ordering on the
// non-disjoint DBCs, polished by the TwoOpt local search (see twoopt.go).
// Each such DBC gets one access graph (graph.go), which ShiftsReduce
// orders on and the polish's DeltaEvaluator then embeds: it is derived
// from the cost kernel in O(nnz) when the options carry one for s, and
// otherwise replayed from the stream once. The engine and the Lab pass
// no kernel: one replay per DBC is cheaper than a kernel build (see
// DESIGN.md §8). The polish prices a candidate swap in O(freq) and a
// candidate reversal in O(1) from running row sums, never replaying the
// DBC's restricted subsequence, so the strategy stays affordable on long
// traces (BenchmarkTwoOptDelta). TwoOpt can only keep or improve the
// intra cost, so this strategy is never worse than DMA-SR on the cost
// model. It is not one of the paper's six evaluated strategies; it is a
// builtin (builtinStrategies), seeded into every Registry as "DMA-2opt".
func PlaceDMATwoOpt(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	a := trace.Analyze(s)
	r, err := DMA(a, q, opts.Capacity)
	if err != nil {
		return nil, 0, err
	}
	pm, err := opts.PortModelFor(q)
	if err != nil {
		return nil, 0, err
	}
	kern := opts.Kernel
	if kern != nil && kern.Sequence() != s {
		kern = nil
	}
	// Under a multi-port objective the single-port polish still runs
	// first (it is the cheap surrogate), then a port-aware 2-opt sweep
	// polishes under the true objective. Because the port pass starts
	// from exactly the order the single-port pipeline produces and only
	// accepts improving moves, the multi-port DMA-2opt placement never
	// scores worse on the device than the single-port one replayed on
	// it — the monotonicity the ports-sweep experiment asserts.
	refined := func(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
		if len(vars) <= 2 {
			return OFU(vars, s, a) // ShiftsReduce's order; too short to polish
		}
		idx := memberIndex(s.NumVars(), vars)
		var g accessGraph
		if kern != nil {
			g = graphFromKernel(kern, vars, idx)
		} else {
			g = graphFromStream(s, idx)
		}
		order := shiftsReduce(vars, idx, &g, a)
		for i, v := range order {
			idx[v] = i // the same members, now by offset
		}
		return twoOpt(newDelta(g, order, idx), s, pm)
	}
	p := ApplyIntra(r.Placement, r.DisjointDBCs, q, refined, s, a)
	c, err := costOf(s, p, q, opts)
	return p, c, err
}
