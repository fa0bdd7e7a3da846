package placement

import (
	"fmt"

	"repro/internal/trace"
)

// ShiftCost replays the access sequence against the placement and returns
// the total number of shift operations under the paper's cost model: per
// DBC, each access costs the absolute offset distance from the previously
// accessed variable in that DBC; the first access of each DBC is free. An
// access to a variable the placement leaves out is an error.
//
// The replay is the repository's cost *oracle*: every other evaluator —
// the O(nnz) CostKernel full evaluation and the O(freq) DeltaEvaluator
// move evaluation — is pinned bit-identical to it (see DESIGN.md §8).
// Hot paths that evaluate many placements of one sequence should build a
// CostKernel instead; ShiftCost replays the stream at O(accesses) and is
// equivalent to driving one rtm.ShiftEngine per DBC with one port per
// track (see TestCostMatchesEngine).
func ShiftCost(s *trace.Sequence, p *Placement) (int64, error) {
	return PortCost(s, p, nil)
}

// unplacedAccess reports access i of s, whose variable the placement
// leaves out.
func unplacedAccess(s *trace.Sequence, i int) error {
	return fmt.Errorf("placement: access %d to unplaced variable %s", i, s.Name(s.Accesses[i].Var))
}

// CostBreakdown reports the per-DBC shift totals, mirroring the S0/S1
// decomposition in Fig. 3 of the paper.
type CostBreakdown struct {
	PerDBC []int64
	Total  int64
}

// ShiftCostBreakdown is ShiftCost with per-DBC attribution.
func ShiftCostBreakdown(s *trace.Sequence, p *Placement) (*CostBreakdown, error) {
	return PortCostBreakdown(s, p, nil)
}
