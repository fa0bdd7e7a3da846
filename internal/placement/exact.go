package placement

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// The exact solver substitutes for the ILP formulation the paper's
// optimality discussion implies (see DESIGN.md §3): Go has no usable ILP
// ecosystem, so small instances are solved exactly by
//
//  1. enumerating inter-DBC assignments with symmetry breaking (DBCs are
//     interchangeable, so variable i may only open DBC number
//     maxUsed+1), and
//  2. solving each DBC's intra ordering exactly as a minimum linear
//     arrangement (MinLA) over the DBC-restricted access graph with the
//     classic O(2^k·k) dynamic program over subsets.
//
// Tests use it as ground truth for the heuristics and the GA.

// MaxExactVars bounds the instance size Exact accepts; beyond this the
// enumeration explodes.
const MaxExactVars = 14

// IntraExact returns the optimal ordering of vars within a single DBC for
// the DBC-restricted subsequence of s, along with its cost. It solves
// MinLA by subset DP: the total cost of an ordering equals the sum over
// prefix boundaries of the cut weight, so
//
//	dp[S] = cross(S) + min over v in S of dp[S \ {v}]
//
// where cross(S) is the weight of edges from S to the remaining vars.
func IntraExact(vars []int, s *trace.Sequence) ([]int, int64, error) {
	k := len(vars)
	if k == 0 {
		return nil, 0, nil
	}
	if k > 20 {
		return nil, 0, fmt.Errorf("placement: IntraExact limited to 20 variables, got %d", k)
	}
	idx := memberIndex(s.NumVars(), vars)
	g := graphFromStream(s, idx)

	// w[i][j]: subgraph weight between local i and j, from i's row.
	w := make([][]int64, k)
	for i, u := range vars {
		w[i] = make([]int64, k)
		for e := g.start[u]; e < g.start[u+1]; e++ {
			w[i][idx[g.nbr[e]]] = g.wgt[e]
		}
	}
	// toAll[i] = total weight incident to i.
	toAll := make([]int64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			toAll[i] += w[i][j]
		}
	}

	size := 1 << k
	dp := make([]int64, size)
	choice := make([]int8, size)
	cross := make([]int64, size)
	for S := 1; S < size; S++ {
		// cross(S) incrementally: adding bit b to S' = S without b flips
		// b's edges: edges to members of S' stop crossing, edges to
		// non-members start crossing.
		b := trailingZeros(S)
		Sp := S &^ (1 << b)
		inner := int64(0)
		for j := 0; j < k; j++ {
			if Sp&(1<<j) != 0 {
				inner += w[b][j]
			}
		}
		cross[S] = cross[Sp] + toAll[b] - 2*inner

		dp[S] = math.MaxInt64
		for j := 0; j < k; j++ {
			if S&(1<<j) == 0 {
				continue
			}
			prev := dp[S&^(1<<j)]
			if prev < dp[S] {
				dp[S] = prev
				choice[S] = int8(j)
			}
		}
		dp[S] += cross[S]
	}

	// Recover order: choice[S] is the variable placed at position |S|-1.
	order := make([]int, k)
	S := size - 1
	for p := k - 1; p >= 0; p-- {
		j := int(choice[S])
		order[p] = vars[j]
		S &^= 1 << j
	}
	return order, dp[size-1], nil
}

func trailingZeros(x int) int {
	n := 0
	for x&1 == 0 {
		x >>= 1
		n++
	}
	return n
}

// ExactResult is the output of the exact solver.
type ExactResult struct {
	Placement *Placement
	Cost      int64
	// Assignments is the number of inter-DBC assignments enumerated.
	Assignments int64
}

// Exact computes the optimal placement of the sequence's variables into q
// DBCs (capacity optionally bounding DBC sizes; 0 = unlimited). It is
// exponential and guarded by MaxExactVars.
func Exact(s *trace.Sequence, q, capacity int) (*ExactResult, error) {
	if q <= 0 {
		return nil, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	a := trace.Analyze(s)
	vars := a.ByFirstUse()
	n := len(vars)
	if n > MaxExactVars {
		return nil, fmt.Errorf("placement: Exact limited to %d variables, got %d", MaxExactVars, n)
	}
	if n == 0 {
		return &ExactResult{Placement: NewEmpty(q)}, nil
	}

	assign := make([]int, n)
	groups := make([][]int, q)
	res := &ExactResult{Cost: math.MaxInt64}

	var recurse func(i, maxUsed int)
	recurse = func(i, maxUsed int) {
		if i == n {
			res.Assignments++
			p := NewEmpty(q)
			var total int64
			for d := 0; d < q; d++ {
				if len(groups[d]) == 0 {
					continue
				}
				order, cost, err := IntraExact(groups[d], s)
				if err != nil {
					return
				}
				p.DBC[d] = order
				total += cost
				if total >= res.Cost {
					return
				}
			}
			if total < res.Cost {
				res.Cost = total
				res.Placement = p
			}
			return
		}
		limit := maxUsed + 1
		if limit >= q {
			limit = q - 1
		}
		for d := 0; d <= limit; d++ {
			if capacity > 0 && len(groups[d]) >= capacity {
				continue
			}
			assign[i] = d
			groups[d] = append(groups[d], vars[i])
			nm := maxUsed
			if d > maxUsed {
				nm = d
			}
			recurse(i+1, nm)
			groups[d] = groups[d][:len(groups[d])-1]
		}
	}
	recurse(0, -1)
	if res.Placement == nil {
		return nil, fmt.Errorf("placement: no feasible placement for %d variables into %d DBCs with capacity %d", n, q, capacity)
	}
	return res, nil
}
