// Package placement implements the data-placement algorithms of
// "Generalized Data Placement Strategies for Racetrack Memories"
// (Khan, Goens, Hameed, Castrillon — DATE 2020) together with the
// state-of-the-art baselines the paper compares against.
//
// A placement assigns every accessed program variable to a DBC (inter-DBC
// placement) and to an offset inside that DBC (intra-DBC placement). The
// objective is the total number of racetrack shift operations needed to
// serve an access sequence: within each DBC the cost of an access is the
// absolute offset distance from the previously accessed variable of the
// same DBC, and the first access per DBC is free (paper section II-B,
// validated against the worked example of Fig. 3).
//
// Implemented algorithms:
//
//   - AFD — access-frequency-based inter-DBC distribution (Chen et al.),
//     the paper's baseline (section III-A).
//   - DMA — the paper's sequence-aware heuristic separating variables with
//     disjoint lifespans (Algorithm 1, section III-B).
//   - Intra-DBC orderings: OFU (order of first use), Chen's single-DBC
//     heuristic, and ShiftsReduce.
//   - GA — the paper's µ+λ genetic algorithm over complete placements
//     (section III-C).
//   - RW — random-walk search baseline (section III-C).
//   - Exact — branch-and-bound optimum for small instances (substitute for
//     an ILP, see DESIGN.md).
package placement

import (
	"fmt"
	"sort"

	"repro/internal/trace"
)

// Placement is a complete inter- and intra-DBC assignment: DBC[i] lists the
// variables stored in DBC i, in offset order (DBC[i][k] lives at offset k).
type Placement struct {
	DBC [][]int
}

// NewEmpty returns a placement with q empty DBCs.
func NewEmpty(q int) *Placement {
	return &Placement{DBC: make([][]int, q)}
}

// NumDBCs returns the number of DBCs (including empty ones).
func (p *Placement) NumDBCs() int { return len(p.DBC) }

// NumPlaced returns the total number of placed variables.
func (p *Placement) NumPlaced() int {
	n := 0
	for _, d := range p.DBC {
		n += len(d)
	}
	return n
}

// MaxDBCLen returns the size of the fullest DBC.
func (p *Placement) MaxDBCLen() int {
	m := 0
	for _, d := range p.DBC {
		if len(d) > m {
			m = len(d)
		}
	}
	return m
}

// Clone returns a deep copy.
func (p *Placement) Clone() *Placement {
	c := &Placement{DBC: make([][]int, len(p.DBC))}
	for i, d := range p.DBC {
		c.DBC[i] = append([]int(nil), d...)
	}
	return c
}

// Lookup is the inverse mapping of a placement: for each variable, which
// DBC it lives in and at which offset. Unplaced variables map to (-1, -1).
type Lookup struct {
	DBCOf  []int
	Offset []int
}

// newLookup returns a lookup over numVars variables with none placed.
func newLookup(numVars int) *Lookup {
	l := &Lookup{DBCOf: make([]int, numVars), Offset: make([]int, numVars)}
	for v := range l.DBCOf {
		l.DBCOf[v] = -1
		l.Offset[v] = -1
	}
	return l
}

// BuildLookup inverts the placement over a universe of numVars variables.
// It fails if a variable is placed twice or out of universe.
func (p *Placement) BuildLookup(numVars int) (*Lookup, error) {
	l := newLookup(numVars)
	for d, vars := range p.DBC {
		for off, v := range vars {
			if v < 0 || v >= numVars {
				return nil, fmt.Errorf("placement: variable %d outside universe [0,%d)", v, numVars)
			}
			if l.DBCOf[v] != -1 {
				return nil, fmt.Errorf("placement: variable %d placed twice (DBC %d and %d)", v, l.DBCOf[v], d)
			}
			l.DBCOf[v] = d
			l.Offset[v] = off
		}
	}
	return l, nil
}

// Validate checks that the placement is a legal layout for the sequence:
// every accessed variable is placed exactly once, and (when capacity > 0)
// no DBC exceeds the capacity.
func (p *Placement) Validate(s *trace.Sequence, capacity int) error {
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return err
	}
	for i, a := range s.Accesses {
		if l.DBCOf[a.Var] == -1 {
			return fmt.Errorf("placement: access %d references unplaced variable %s", i, s.Name(a.Var))
		}
	}
	if capacity > 0 {
		for d, vars := range p.DBC {
			if len(vars) > capacity {
				return fmt.Errorf("placement: DBC %d holds %d variables, capacity %d", d, len(vars), capacity)
			}
		}
	}
	return nil
}

// Equal reports whether two placements are identical (same DBC lists in
// the same order).
func (p *Placement) Equal(other *Placement) bool {
	if len(p.DBC) != len(other.DBC) {
		return false
	}
	for i := range p.DBC {
		if len(p.DBC[i]) != len(other.DBC[i]) {
			return false
		}
		for j := range p.DBC[i] {
			if p.DBC[i][j] != other.DBC[i][j] {
				return false
			}
		}
	}
	return true
}

// String renders the placement with variable indices.
func (p *Placement) String() string {
	s := ""
	for i, d := range p.DBC {
		if i > 0 {
			s += " | "
		}
		s += fmt.Sprintf("DBC%d:%v", i, d)
	}
	return s
}

// Render renders the placement with variable names from the sequence.
func (p *Placement) Render(s *trace.Sequence) string {
	out := ""
	for i, d := range p.DBC {
		if i > 0 {
			out += " | "
		}
		out += fmt.Sprintf("DBC%d:[", i)
		for j, v := range d {
			if j > 0 {
				out += " "
			}
			out += s.Name(v)
		}
		out += "]"
	}
	return out
}

// Canonical returns a copy with empty DBCs kept and non-empty DBC order
// normalized by their smallest variable. Useful to compare placements
// modulo DBC renaming (DBCs are interchangeable hardware-wise).
func (p *Placement) Canonical() *Placement {
	c := p.Clone()
	sort.SliceStable(c.DBC, func(i, j int) bool {
		a, b := c.DBC[i], c.DBC[j]
		switch {
		case len(a) == 0 && len(b) == 0:
			return false
		case len(a) == 0:
			return false
		case len(b) == 0:
			return true
		default:
			return a[0] < b[0]
		}
	})
	return c
}
