package placement

import (
	"fmt"

	"repro/internal/trace"
)

// AFD implements the Access Frequency based Distribution heuristic of
// Chen et al., the paper's inter-DBC baseline (section III-A): variables
// are sorted in descending order of access frequency (ties broken by
// declaration order, which reproduces the paper's Fig. 3-(c) layout) and
// dealt to the q DBCs round-robin. Within each DBC, variables remain in
// assignment order; compose with an intra-DBC heuristic to reorder.
func AFD(a *trace.Analysis, q int) (*Placement, error) {
	if q <= 0 {
		return nil, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	p := NewEmpty(q)
	for i, v := range a.ByFrequency() {
		d := i % q
		p.DBC[d] = append(p.DBC[d], v)
	}
	return p, nil
}

// DMAResult is the output of the paper's Algorithm 1: a placement plus the
// number K of leading DBCs that hold the disjoint-lifespan variables in
// access order. Intra-DBC heuristics must be applied only to the remaining
// DBCs (paper, Algorithm 1 lines 22-23): reordering a disjoint DBC would
// destroy the access-order property that makes it cheap.
type DMAResult struct {
	Placement *Placement
	// DisjointDBCs is K: DBCs [0, K) hold disjoint variables.
	DisjointDBCs int
	// Disjoint lists the selected disjoint-lifespan variables in
	// ascending order of first use.
	Disjoint []int
}

// DMA implements Algorithm 1 of the paper ("Proposed data distribution
// heuristic"). capacity is N, the number of word locations per DBC; pass
// 0 for unlimited (placement-quality studies ignore capacity, as the
// paper's evaluation does for benchmarks exceeding the array).
//
// Step 1 (lines 5-12): scan variables in ascending order of first use and
// greedily build the disjoint set Vdj. A variable v joins when its
// lifespan starts after the last selected lifespan ended (Fv > tmin) and
// its own access frequency exceeds the summed frequencies of the not-yet-
// classified variables whose lifespans nest strictly inside v's — i.e.
// keeping v pinned under the port pays off more than optimizing the
// variables it would lock out. Only later candidates can nest inside v,
// so the sum scans forward from v and stops at the first candidate that
// starts after v ends (innerFreqLater); the step allocates nothing but
// its two output lists.
//
// Step 2 (lines 13-17): the disjoint variables fill ceil(|Vdj|/N) DBCs
// round-robin in ascending first-use order, preserving access order.
//
// Step 3 (lines 18-21): the remaining variables fill the remaining DBCs
// round-robin in descending access frequency (AFD-style).
func DMA(a *trace.Analysis, q, capacity int) (*DMAResult, error) {
	if q <= 0 {
		return nil, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	if capacity < 0 {
		return nil, fmt.Errorf("placement: capacity must be non-negative, got %d", capacity)
	}
	// Step 1: greedy disjoint-set extraction over the variables in
	// ascending order of first occurrence.
	vdj, remaining := extractDisjoint(a, a.ByFirstUse())

	// A single DBC cannot separate disjoint from non-disjoint variables;
	// Algorithm 1 needs at least one DBC for each non-empty class.
	k := 0
	if len(vdj) > 0 {
		if capacity > 0 {
			k = (len(vdj) + capacity - 1) / capacity
		} else {
			k = 1
		}
		// Keep at least one DBC for the non-disjoint variables when any
		// exist; if the disjoint set alone exceeds the array, spill the
		// latest-starting disjoint variables back to the non-disjoint set.
		maxK := q
		if len(remaining) > 0 {
			maxK = q - 1
		}
		if maxK == 0 {
			// q == 1 and both classes non-empty: degenerate to a single
			// shared DBC, handled below with k = 0.
			remaining = mergeByFirstUse(a, vdj, remaining)
			vdj = nil
			k = 0
		} else if k > maxK {
			if capacity > 0 {
				keep := maxK * capacity
				spill := vdj[keep:]
				vdj = vdj[:keep]
				remaining = mergeByFirstUse(a, spill, remaining)
			}
			k = maxK
		}
	}

	p := NewEmpty(q)
	// Disjoint variables: round-robin over DBCs [0, k) in ascending
	// first-use order (lines 14-17).
	for i, v := range vdj {
		p.DBC[i%max(k, 1)] = append(p.DBC[i%max(k, 1)], v)
	}
	// Non-disjoint variables: round-robin over DBCs [k, q) in descending
	// access frequency (lines 18-21).
	rest := append([]int(nil), remaining...)
	sortByFreqDesc(a, rest)
	width := q - k
	if width <= 0 {
		width = 1
	}
	for i, v := range rest {
		d := k + i%width
		if d >= q {
			d = q - 1
		}
		p.DBC[d] = append(p.DBC[d], v)
	}

	return &DMAResult{Placement: p, DisjointDBCs: k, Disjoint: vdj}, nil
}

// extractDisjoint runs one greedy pass of Algorithm 1 lines 5-12 over the
// candidate variables (which must be in strictly ascending first-use
// order) and returns (selected, remaining), both in ascending first-use
// order.
func extractDisjoint(a *trace.Analysis, candidates []int) (selected, remaining []int) {
	tmin := 0
	for idx, v := range candidates {
		if a.First[v] > tmin && a.Freq[v] > innerFreqLater(a, v, candidates[idx+1:]) {
			selected = append(selected, v)
			tmin = a.Last[v]
			continue
		}
		remaining = append(remaining, v)
	}
	return selected, remaining
}

// innerFreqLater is Algorithm 1's inner sum for candidate v: the summed
// frequency of the other unselected candidates whose lifespans nest
// strictly inside v's. A candidate before v starts before it and cannot
// nest, so only later ones count, those with Last[u] < Last[v]; the scan
// stops at the first that starts after v ends.
func innerFreqLater(a *trace.Analysis, v int, later []int) int {
	sum := 0
	for _, u := range later {
		if a.First[u] > a.Last[v] {
			break
		}
		if a.Last[u] < a.Last[v] {
			sum += a.Freq[u]
		}
	}
	return sum
}

// mergeByFirstUse merges two first-use-ordered variable lists, preserving
// ascending first-use order.
func mergeByFirstUse(a *trace.Analysis, x, y []int) []int {
	out := make([]int, 0, len(x)+len(y))
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if a.First[x[i]] <= a.First[y[j]] {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	out = append(out, y[j:]...)
	return out
}

func sortByFreqDesc(a *trace.Analysis, vars []int) {
	// Stable insertion sort: ties keep ascending variable order, matching
	// trace.Analysis.ByFrequency.
	for i := 1; i < len(vars); i++ {
		for j := i; j > 0; j-- {
			x, y := vars[j], vars[j-1]
			if a.Freq[x] > a.Freq[y] || (a.Freq[x] == a.Freq[y] && x < y) {
				vars[j], vars[j-1] = vars[j-1], vars[j]
			} else {
				break
			}
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
