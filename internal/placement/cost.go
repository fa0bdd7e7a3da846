package placement

import (
	"fmt"
	"math"
	"sync"

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
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	sc := replayPool.Get().(*replayScratch)
	c, unplaced := shiftCostLookupBounded(s, l, sc.grow(numDBCsIn(l)), math.MaxInt64)
	replayPool.Put(sc)
	if unplaced >= 0 {
		return 0, unplacedAccess(s, unplaced)
	}
	return c, nil
}

// unplacedAccess reports access i of s, whose variable the placement
// leaves out.
func unplacedAccess(s *trace.Sequence, i int) error {
	return fmt.Errorf("placement: access %d to unplaced variable %s", i, s.Name(s.Accesses[i].Var))
}

// replayScratch is the reusable last-offset buffer of the replay loop,
// pooled so repeated ShiftCost calls stop allocating per call.
type replayScratch struct{ last []int }

var replayPool = sync.Pool{New: func() any { return new(replayScratch) }}

// grow returns the scratch resized to q entries, reusing the backing
// array when it is large enough. shiftCostLookupBounded resets the
// contents.
func (sc *replayScratch) grow(q int) []int {
	if cap(sc.last) < q {
		sc.last = make([]int, q)
	}
	sc.last = sc.last[:q]
	return sc.last
}

// shiftCostLookupBounded is the allocation-free inner loop of the replay
// path, with an abort threshold: the running total only grows, so once
// it reaches bound the final cost provably does too and the replay
// stops. Exact below bound; at or above bound the value is only a
// certificate that cost >= bound. Best-of-N searches use it to discard
// losing placements early; math.MaxInt64 prices the whole stream. last
// must have one entry per DBC of the lookup (callers thread a reusable
// buffer through). unplaced is -1, or the index of the first access to
// a variable the lookup leaves out, where the replay stops.
//
//rtm:hotpath
func shiftCostLookupBounded(s *trace.Sequence, l *Lookup, last []int, bound int64) (total int64, unplaced int) {
	// last[d] is the offset of the previously accessed variable in DBC d,
	// or -1 when the DBC is still cold.
	for i := range last {
		last[i] = -1
	}
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if uint(d) >= uint(len(last)) {
			return total, i
		}
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			if off > prev {
				total += int64(off - prev)
			} else {
				total += int64(prev - off)
			}
			if total >= bound {
				return total, -1
			}
		}
		last[d] = off
	}
	return total, -1
}

// shiftCostPerDBC is the replay loop with per-DBC attribution: one
// O(accesses) pass prices every DBC of the placement at once (the GA's
// DBC cost cache uses it to fill all missing entries together when a
// placement shares little with previously priced ones). per must hold
// one entry per DBC; it is zeroed here.
//
//rtm:hotpath
func shiftCostPerDBC(s *trace.Sequence, l *Lookup, last []int, per []int64) {
	for i := range last {
		last[i] = -1
		per[i] = 0
	}
	for _, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			if off > prev {
				per[d] += int64(off - prev)
			} else {
				per[d] += int64(prev - off)
			}
		}
		last[d] = off
	}
}

func numDBCsIn(l *Lookup) int {
	max := 0
	for _, d := range l.DBCOf {
		if d+1 > max {
			max = d + 1
		}
	}
	return max
}

// CostBreakdown reports the per-DBC shift totals and access counts,
// mirroring the S0/S1 decomposition in Fig. 3 of the paper.
type CostBreakdown struct {
	PerDBC   []int64
	Accesses []int64
	Total    int64
}

// ShiftCostBreakdown is ShiftCost with per-DBC attribution.
func ShiftCostBreakdown(s *trace.Sequence, p *Placement) (*CostBreakdown, error) {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return nil, err
	}
	q := len(p.DBC)
	b := &CostBreakdown{PerDBC: make([]int64, q), Accesses: make([]int64, q)}
	last := make([]int, q)
	for i := range last {
		last[i] = -1
	}
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 || d >= q {
			return nil, unplacedAccess(s, i)
		}
		off := l.Offset[a.Var]
		if prev := last[d]; prev >= 0 {
			delta := off - prev
			if delta < 0 {
				delta = -delta
			}
			b.PerDBC[d] += int64(delta)
			b.Total += int64(delta)
		}
		last[d] = off
		b.Accesses[d]++
	}
	return b, nil
}
