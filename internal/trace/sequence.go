// Package trace models program memory-access traces for racetrack-memory
// data-placement studies.
//
// A trace is a sequence of accesses to named memory objects (program
// variables). The package provides the access-sequence representation used
// throughout the repository, per-variable liveness analysis (access
// frequency, first/last occurrence, lifespan, disjointness), the weighted
// access graph that classic offset-assignment heuristics consume, and a
// plain-text interchange format.
//
// Terminology follows the paper "Generalized Data Placement Strategies for
// Racetrack Memories" (DATE 2020), section II-B: an access sequence
// S = (s1, ..., sk) over a variable set V, summarized by an access graph
// whose edge weights count consecutive accesses to variable pairs.
package trace

import (
	"fmt"
	"sort"
	"strings"
)

// Access is a single memory reference in a trace: which variable was
// touched and whether the reference was a write.
type Access struct {
	// Var is the variable index, in [0, NumVars).
	Var int
	// Write reports whether the access was a store; loads are the default.
	Write bool
}

// Sequence is a single access sequence over a dense variable space.
// Variable indices run from 0 to NumVars()-1. Names are optional; when
// present, Names[i] labels variable i.
//
// The zero value is an empty sequence with no variables.
type Sequence struct {
	// Names optionally labels the variables. When non-nil its length
	// defines the variable universe; variables never accessed may exist.
	Names []string
	// Accesses is the ordered list of references.
	Accesses []Access

	numVars int // cached max(var)+1 when Names == nil
}

// NewSequence builds a sequence from a list of variable indices, all reads.
// The variable universe is the smallest dense range covering the indices.
func NewSequence(vars ...int) *Sequence {
	s := &Sequence{Accesses: make([]Access, len(vars))}
	for i, v := range vars {
		s.Accesses[i] = Access{Var: v}
	}
	s.refresh()
	return s
}

// NewNamedSequence builds a sequence from variable names. Each distinct
// name becomes a variable, numbered in order of first appearance; a name
// suffixed with "!" denotes a write access.
func NewNamedSequence(tokens ...string) (*Sequence, error) {
	s := &Sequence{}
	index := make(map[string]int)
	for _, tok := range tokens {
		write := false
		name := tok
		if strings.HasSuffix(tok, "!") {
			write = true
			name = strings.TrimSuffix(tok, "!")
		}
		if name == "" {
			return nil, fmt.Errorf("trace: empty variable name in token %q", tok)
		}
		id, ok := index[name]
		if !ok {
			id = len(s.Names)
			index[name] = id
			s.Names = append(s.Names, name)
		}
		s.Accesses = append(s.Accesses, Access{Var: id, Write: write})
	}
	s.refresh()
	return s, nil
}

// NewNamedSequenceWithUniverse is like NewNamedSequence but with an
// explicitly declared variable universe: variable i is universe[i], so
// tie-breaking by variable index follows declaration order rather than
// order of first appearance. Every accessed name must be declared.
func NewNamedSequenceWithUniverse(universe []string, tokens ...string) (*Sequence, error) {
	s := &Sequence{Names: append([]string(nil), universe...)}
	index := make(map[string]int, len(universe))
	for i, n := range universe {
		if n == "" {
			return nil, fmt.Errorf("trace: empty name at universe index %d", i)
		}
		if _, dup := index[n]; dup {
			return nil, fmt.Errorf("trace: duplicate name %q in universe", n)
		}
		index[n] = i
	}
	for _, tok := range tokens {
		write := false
		name := tok
		if strings.HasSuffix(tok, "!") {
			write = true
			name = strings.TrimSuffix(tok, "!")
		}
		id, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("trace: access to undeclared variable %q", name)
		}
		s.Accesses = append(s.Accesses, Access{Var: id, Write: write})
	}
	s.refresh()
	return s, nil
}

func (s *Sequence) refresh() {
	max := -1
	for _, a := range s.Accesses {
		if a.Var > max {
			max = a.Var
		}
	}
	s.numVars = max + 1
}

// NumVars returns the size of the variable universe: len(Names) when names
// are present, otherwise max accessed index + 1.
func (s *Sequence) NumVars() int {
	if s.Names != nil {
		return len(s.Names)
	}
	if s.numVars == 0 && len(s.Accesses) > 0 {
		s.refresh()
	}
	return s.numVars
}

// Len returns the number of accesses in the sequence.
func (s *Sequence) Len() int { return len(s.Accesses) }

// Var returns the variable index of the i-th access.
func (s *Sequence) Var(i int) int { return s.Accesses[i].Var }

// Name returns a printable label for variable v: the declared name when
// available, otherwise "v<index>".
func (s *Sequence) Name(v int) string {
	if s.Names != nil && v >= 0 && v < len(s.Names) {
		return s.Names[v]
	}
	return fmt.Sprintf("v%d", v)
}

// Append adds an access to the end of the sequence.
func (s *Sequence) Append(v int, write bool) {
	s.Accesses = append(s.Accesses, Access{Var: v, Write: write})
	if s.Names == nil && v+1 > s.numVars {
		s.numVars = v + 1
	}
}

// Validate checks internal consistency: every access index must be
// non-negative and, when names are present, within the named universe.
func (s *Sequence) Validate() error {
	n := s.NumVars()
	for i, a := range s.Accesses {
		if a.Var < 0 {
			return fmt.Errorf("trace: access %d has negative variable %d", i, a.Var)
		}
		if s.Names != nil && a.Var >= n {
			return fmt.Errorf("trace: access %d references variable %d outside named universe of %d", i, a.Var, n)
		}
	}
	return nil
}

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	c := &Sequence{numVars: s.numVars}
	if s.Names != nil {
		c.Names = append([]string(nil), s.Names...)
	}
	c.Accesses = append([]Access(nil), s.Accesses...)
	return c
}

// Fingerprint returns a 64-bit FNV-1a hash over the sequence's content:
// the variable universe, the names (when present) and the ordered access
// stream including read/write kinds. Content-equal sequences hash alike
// regardless of pointer identity, which is what content-addressed caches
// (the public API's kernel cache) key on. Collisions must be resolved by
// ContentEqual.
func (s *Sequence) Fingerprint() uint64 {
	h := newBinHash()
	h.header(s.NumVars(), s.Names)
	for _, a := range s.Accesses {
		h.mixAccess(a)
	}
	return h.h
}

// ContentEqual reports whether two sequences describe the identical
// trace: same variable universe, same names (or both unnamed) and the
// same ordered accesses.
func (s *Sequence) ContentEqual(o *Sequence) bool {
	if s == o {
		return true
	}
	if s == nil || o == nil {
		return false
	}
	if s.NumVars() != o.NumVars() || len(s.Names) != len(o.Names) || len(s.Accesses) != len(o.Accesses) {
		return false
	}
	for i, n := range s.Names {
		if o.Names[i] != n {
			return false
		}
	}
	for i, a := range s.Accesses {
		if o.Accesses[i] != a {
			return false
		}
	}
	return true
}

// Writes counts write accesses.
func (s *Sequence) Writes() int {
	n := 0
	for _, a := range s.Accesses {
		if a.Write {
			n++
		}
	}
	return n
}

// Reads counts read accesses.
func (s *Sequence) Reads() int { return len(s.Accesses) - s.Writes() }

// Restrict returns the subsequence containing only accesses to variables
// for which keep[v] is true. Variable indices are preserved (the universe
// is unchanged), so analyses on the restriction stay comparable.
func (s *Sequence) Restrict(keep func(v int) bool) *Sequence {
	c := &Sequence{Names: s.Names, numVars: s.numVars}
	for _, a := range s.Accesses {
		if keep(a.Var) {
			c.Accesses = append(c.Accesses, a)
		}
	}
	return c
}

// String renders the sequence as space-separated variable labels, with
// writes suffixed by "!". Long sequences are elided for readability.
func (s *Sequence) String() string {
	const max = 64
	var b strings.Builder
	for i, a := range s.Accesses {
		if i == max {
			fmt.Fprintf(&b, " ... (%d more)", len(s.Accesses)-max)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(s.Name(a.Var))
		if a.Write {
			b.WriteByte('!')
		}
	}
	return b.String()
}

// Distinct returns the sorted list of variable indices actually accessed.
func (s *Sequence) Distinct() []int {
	seen := make(map[int]bool, s.NumVars())
	for _, a := range s.Accesses {
		seen[a.Var] = true
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
