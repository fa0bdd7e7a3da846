package placement

import (
	"repro/internal/trace"
)

// maxTwoOptPasses bounds the number of improvement sweeps; local optima
// are normally reached in far fewer.
const maxTwoOptPasses = 24

// TwoOpt is an intra-DBC local-search improver in the spirit of the
// TSP view of offset assignment (Jünger & Mallach, the paper's ref [4]):
// starting from any ordering, repeatedly apply the first improving move of
// two move families until a local optimum is reached:
//
//   - swap: exchange the offsets of two variables;
//   - segment reversal: the classic 2-opt move, reversing a contiguous
//     offset range.
//
// The objective evaluated is the true intra-DBC shift cost of the
// DBC-restricted subsequence (not just the access-graph approximation),
// so a TwoOpt pass can only improve or keep the cost of whatever
// heuristic ran before it.
//
// Moves are evaluated incrementally through DeltaEvaluator (delta.go):
// after an O(m) setup per DBC, a candidate swap costs O(freq(u)+freq(v))
// and a candidate reversal O(1) from running sums over the row's
// boundary-crossing transitions, instead of the seed's O(m) full
// recompute per candidate. The search trajectory is identical to the
// seed implementation move-for-move (TestTwoOptMatchesReference pins
// this against the reference kept in twoopt_reference_test.go).
// Intended as a polish pass after Chen or ShiftsReduce, and as the
// optional '+2opt' ablation in bench_test.go.
func TwoOpt(vars []int, s *trace.Sequence, a *trace.Analysis) []int {
	if len(vars) < 3 {
		return append([]int(nil), vars...)
	}
	return twoOpt(NewDeltaEvaluator(s, vars), s, nil)
}

// twoOpt polishes the order of e, an evaluator over s, and returns the
// result. With a port model, a second sweep follows under the multi-port
// objective: the same move families, first-improvement rule and pass
// bound, evaluated by PortDeltaEvaluator's exact restricted replay.
// Starting from the single-port result and accepting only improvements,
// it never scores worse on a multi-port device than the single-port
// order.
func twoOpt(e *DeltaEvaluator, s *trace.Sequence, pm *PortModel) []int {
	order := e.order
	if out := polish(e, maxTwoOptPasses); out != nil {
		order = out
	}
	if pm != nil {
		if out := polish(NewPortDeltaEvaluator(s, order, pm), maxTwoOptPasses); out != nil {
			order = out
		}
	}
	return order
}

// polisher is the move surface the 2-opt polish drives: DeltaEvaluator
// under the single-port model, PortDeltaEvaluator under a multi-port
// one.
type polisher interface {
	Accesses() int
	ImprovePass() bool
	CurrentOrder() []int
}

// polish runs first-improvement sweeps of e until one accepts no move or
// passes sweeps ran, and returns the improved order. With fewer than two
// accesses to its members an order has nothing to improve, and polish
// returns nil.
func polish(e polisher, passes int) []int {
	if e.Accesses() < 2 {
		return nil
	}
	for pass := 0; pass < passes; pass++ {
		if !e.ImprovePass() {
			break
		}
	}
	return e.CurrentOrder()
}
