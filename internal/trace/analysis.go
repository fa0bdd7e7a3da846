package trace

// Analysis holds per-variable liveness statistics of an access sequence:
// access frequency Av, first occurrence Fv and last occurrence Lv, using
// 1-based positions as in the paper (position 0 means "never accessed").
type Analysis struct {
	Seq *Sequence
	// Freq[v] is Av: how many times v appears in the sequence.
	Freq []int
	// First[v] is Fv: 1-based index of the first access to v, 0 if absent.
	First []int
	// Last[v] is Lv: 1-based index of the last access to v, 0 if absent.
	Last []int
}

// Analyze scans the sequence once and computes frequency, first and last
// occurrence for every variable in the universe.
func Analyze(s *Sequence) *Analysis {
	n := s.NumVars()
	a := &Analysis{
		Seq:   s,
		Freq:  make([]int, n),
		First: make([]int, n),
		Last:  make([]int, n),
	}
	for i, acc := range s.Accesses {
		v := acc.Var
		a.Freq[v]++
		if a.First[v] == 0 {
			a.First[v] = i + 1
		}
		a.Last[v] = i + 1
	}
	return a
}

// Accessed reports whether variable v occurs in the sequence at all.
func (a *Analysis) Accessed(v int) bool { return a.Freq[v] > 0 }

// Disjoint reports whether u and v have disjoint lifespans: the last
// occurrence of one precedes the first occurrence of the other. Variables
// that never occur are vacuously disjoint from everything.
func (a *Analysis) Disjoint(u, v int) bool {
	if !a.Accessed(u) || !a.Accessed(v) {
		return true
	}
	return a.Last[u] < a.First[v] || a.Last[v] < a.First[u]
}

// ByFirstUse returns the accessed variables sorted in ascending order of
// first occurrence (the paper's "order of first use", OFU).
func (a *Analysis) ByFirstUse() []int {
	out := make([]int, 0, len(a.Freq))
	for v := range a.Freq {
		if a.Accessed(v) {
			out = append(out, v)
		}
	}
	insertionSortBy(out, func(x, y int) bool { return a.First[x] < a.First[y] })
	return out
}

// ByFrequency returns the accessed variables sorted in descending order of
// access frequency. Ties keep ascending variable-index order (stable with
// respect to declaration order), which is the tie-break needed to reproduce
// the paper's Fig. 3 AFD layout.
func (a *Analysis) ByFrequency() []int {
	out := make([]int, 0, len(a.Freq))
	for v := range a.Freq {
		if a.Accessed(v) {
			out = append(out, v)
		}
	}
	insertionSortBy(out, func(x, y int) bool {
		if a.Freq[x] != a.Freq[y] {
			return a.Freq[x] > a.Freq[y]
		}
		return x < y
	})
	return out
}

// insertionSortBy sorts in place with a strict-weak less function. The
// input slices here are small (variable lists); a stable, allocation-free
// insertion sort keeps tie-break behaviour explicit and deterministic.
func insertionSortBy(s []int, less func(x, y int) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
