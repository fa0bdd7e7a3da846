package placement

import (
	"sync"

	"repro/internal/trace"
)

// The replay loops price an access stream against a placement's lookup.
// Each step rule — the paper's single-port |x−y| and PortModel's nearest
// port — has exactly two: a bounded total and an unbounded per-DBC
// attribution (DESIGN.md §8). Every loop reads and advances caller-owned
// per-DBC track state and never resets it: a caller starting from cold
// DBCs fills the state with cold first (setCold, trackScratch.cold),
// and the streamed stitching carries one state across every window.
//
// The loops are written out per rule rather than folded into one over a
// step function or an optional sink: both folds measured slower on
// scattered placements, where the step itself is the cost (DESIGN.md §8).

// cold marks a DBC whose track has not been accessed yet. Its first
// access is free; under the single-port model the track then sits at the
// accessed offset, under a PortModel at the cheapest port's alignment.
const cold = int(^uint(0) >> 1) // MaxInt: never a reachable offset

// setCold makes every DBC of the track state cold.
func setCold(track []int) {
	for d := range track {
		track[d] = cold
	}
}

// trackScratch is a reusable per-DBC track state, pooled so repeated
// pricing calls stop allocating.
type trackScratch struct{ track []int }

var trackPool = sync.Pool{New: func() any { return new(trackScratch) }}

// cold returns the scratch resized to q DBCs, every one cold, reusing
// the backing array when it is large enough.
func (sc *trackScratch) cold(q int) []int {
	if cap(sc.track) < q {
		sc.track = make([]int, q)
	}
	sc.track = sc.track[:q]
	setCold(sc.track)
	return sc.track
}

// replayTotal prices s against l under pm (nil: the single-port model),
// starting from and advancing the track state, one entry per DBC. It
// stops early once the total reaches bound: the total only grows, so the
// value is exact below bound and at or above it only a certificate that
// the cost is at least bound. math.MaxInt64 prices the whole stream.
// unplaced is -1, or the index of the first access to a variable outside
// the track's DBCs, where the replay stops.
func replayTotal(s *trace.Sequence, l *Lookup, pm *PortModel, track []int, bound int64) (total int64, unplaced int) {
	if pm == nil {
		return shiftTotal(s, l, track, bound)
	}
	return pm.total(s, l, track, bound)
}

// replayPerDBC is replayTotal without a bound, adding each access's cost
// to per[d] of its DBC d; per needs an entry for every DBC of the track.
func replayPerDBC(s *trace.Sequence, l *Lookup, pm *PortModel, track []int, per []int64) (unplaced int) {
	if pm == nil {
		return shiftPerDBC(s, l, track, per)
	}
	return pm.perDBC(s, l, track, per)
}

// absDist is the single-port step: the shifts between offsets a and b.
// Written as one comparison it compiles to a conditional move, where a
// branch on the sign would mispredict on scattered placements.
func absDist(a, b int) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}

// shiftTotal is replayTotal under the single-port model.
//
//rtm:hotpath
func shiftTotal(s *trace.Sequence, l *Lookup, track []int, bound int64) (total int64, unplaced int) {
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if uint(d) >= uint(len(track)) {
			return total, i
		}
		x := l.Offset[a.Var]
		if o := track[d]; o != cold {
			total += absDist(o, x)
			if total >= bound {
				return total, -1
			}
		}
		track[d] = x
	}
	return total, -1
}

// shiftPerDBC is replayPerDBC under the single-port model.
//
//rtm:hotpath
func shiftPerDBC(s *trace.Sequence, l *Lookup, track []int, per []int64) (unplaced int) {
	per = per[:len(track)]
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if uint(d) >= uint(len(track)) {
			return i
		}
		x := l.Offset[a.Var]
		if o := track[d]; o != cold {
			per[d] += absDist(o, x)
		}
		track[d] = x
	}
	return -1
}

// total is replayTotal under the multi-port model.
//
//rtm:hotpath
func (m *PortModel) total(s *trace.Sequence, l *Lookup, track []int, bound int64) (total int64, unplaced int) {
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if uint(d) >= uint(len(track)) {
			return total, i
		}
		x := l.Offset[a.Var]
		if o := track[d]; o != cold {
			c, no := m.step(o, x)
			track[d] = no
			total += int64(c)
			if total >= bound {
				return total, -1
			}
		} else {
			_, track[d] = m.step(0, x)
		}
	}
	return total, -1
}

// perDBC is replayPerDBC under the multi-port model.
//
//rtm:hotpath
func (m *PortModel) perDBC(s *trace.Sequence, l *Lookup, track []int, per []int64) (unplaced int) {
	per = per[:len(track)]
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if uint(d) >= uint(len(track)) {
			return i
		}
		x := l.Offset[a.Var]
		if o := track[d]; o != cold {
			c, no := m.step(o, x)
			track[d] = no
			per[d] += int64(c)
		} else {
			_, track[d] = m.step(0, x)
		}
	}
	return -1
}
