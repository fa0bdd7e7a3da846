package trace

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Lifespan returns Lv - Fv, the distance between the first and last access
// of v. Variables accessed exactly once have lifespan 0, as do absent ones.
func (a *Analysis) Lifespan(v int) int {
	if !a.Accessed(v) {
		return 0
	}
	return a.Last[v] - a.First[v]
}

// paperTokens is the access sequence of Fig. 3-(b) of the paper,
// reconstructed so that every published statistic matches: the Av/Fv/Lv
// table of Fig. 3-(e), the AFD subsequences S0 = a b a b a a d d a g g h g h
// and S1 = c c i e f e f e i i of Fig. 3-(c), and the shift costs 24+15=39
// (AFD) and 4+7=11 (sequence-aware).
func paperTokens() []string {
	return strings.Fields("a b a b c a c a d d a i e f e f g e g h g i h i")
}

// paperSeq builds the Fig. 3 sequence with the variable set declared
// alphabetically, as in Fig. 3-(a); declaration order is the tie-break AFD
// needs to reproduce the published layout.
func paperSeq(t testing.TB) *Sequence {
	t.Helper()
	universe := strings.Split("a b c d e f g h i", " ")
	s, err := NewNamedSequenceWithUniverse(universe, paperTokens()...)
	if err != nil {
		t.Fatalf("NewNamedSequenceWithUniverse: %v", err)
	}
	return s
}

func TestPaperExampleAnalysis(t *testing.T) {
	s := paperSeq(t)
	a := Analyze(s)
	// Expected values straight from Fig. 3-(e): v(Av), Fv, Lv.
	want := []struct {
		name       string
		av, fv, lv int
	}{
		{"a", 5, 1, 11},
		{"b", 2, 2, 4},
		{"c", 2, 5, 7},
		{"d", 2, 9, 10},
		{"e", 3, 13, 18},
		{"f", 2, 14, 16},
		{"g", 3, 17, 21},
		{"h", 2, 20, 23},
		{"i", 3, 12, 24},
	}
	if s.Len() != 24 {
		t.Fatalf("sequence length = %d, want 24", s.Len())
	}
	for _, w := range want {
		v := -1
		for i, n := range s.Names {
			if n == w.name {
				v = i
			}
		}
		if v < 0 {
			t.Fatalf("variable %q missing", w.name)
		}
		if a.Freq[v] != w.av {
			t.Errorf("A(%s) = %d, want %d", w.name, a.Freq[v], w.av)
		}
		if a.First[v] != w.fv {
			t.Errorf("F(%s) = %d, want %d", w.name, a.First[v], w.fv)
		}
		if a.Last[v] != w.lv {
			t.Errorf("L(%s) = %d, want %d", w.name, a.Last[v], w.lv)
		}
	}
}

func TestDisjointLifespans(t *testing.T) {
	s := paperSeq(t)
	a := Analyze(s)
	id := func(name string) int {
		for i, n := range s.Names {
			if n == name {
				return i
			}
		}
		t.Fatalf("no variable %q", name)
		return -1
	}
	// The paper: "variables b and c have disjoint lifespans"; lifespan of
	// b is 2 (4-2).
	if got := a.Lifespan(id("b")); got != 2 {
		t.Errorf("lifespan(b) = %d, want 2", got)
	}
	if !a.Disjoint(id("b"), id("c")) {
		t.Error("b and c should be disjoint")
	}
	if a.Disjoint(id("a"), id("b")) {
		t.Error("a and b overlap (a spans 1..11, b spans 2..4)")
	}
	// The paper's selected disjoint combination: b, c, d, e, h.
	set := []string{"b", "c", "d", "e", "h"}
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if !a.Disjoint(id(set[i]), id(set[j])) {
				t.Errorf("%s and %s should be disjoint", set[i], set[j])
			}
		}
	}
	sum := 0
	for _, n := range set {
		sum += a.Freq[id(n)]
	}
	if sum != 11 {
		t.Errorf("disjoint combination frequency sum = %d, want 11", sum)
	}
}

func TestByFrequencyTieBreak(t *testing.T) {
	s := paperSeq(t)
	a := Analyze(s)
	order := a.ByFrequency()
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = s.Name(v)
	}
	// Stable by declaration (alphabetical here) within equal frequency:
	// a(5), then e,g,i(3), then b,c,d,f,h(2). This ordering is what makes
	// AFD reproduce the Fig. 3-(c) layout.
	want := "a e g i b c d f h"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("ByFrequency order = %q, want %q", got, want)
	}
}

func TestByFirstUse(t *testing.T) {
	s := paperSeq(t)
	a := Analyze(s)
	order := a.ByFirstUse()
	names := make([]string, len(order))
	for i, v := range order {
		names[i] = s.Name(v)
	}
	want := "a b c d i e f g h"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("ByFirstUse order = %q, want %q", got, want)
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	b := &Benchmark{Name: "rt"}
	s1, _ := NewNamedSequence("x", "y", "x!", "z")
	s2, _ := NewNamedSequence("p", "p", "q")
	b.Sequences = []*Sequence{s1, s2}

	var sb strings.Builder
	if err := Write(&sb, b); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ParseString("rt", sb.String())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(got.Sequences) != 2 {
		t.Fatalf("parsed %d sequences, want 2", len(got.Sequences))
	}
	for i, want := range b.Sequences {
		g := got.Sequences[i]
		if g.Len() != want.Len() {
			t.Fatalf("seq %d length %d, want %d", i, g.Len(), want.Len())
		}
		for j := range want.Accesses {
			if g.Name(g.Var(j)) != want.Name(want.Var(j)) {
				t.Errorf("seq %d access %d = %s, want %s",
					i, j, g.Name(g.Var(j)), want.Name(want.Var(j)))
			}
			if g.Accesses[j].Write != want.Accesses[j].Write {
				t.Errorf("seq %d access %d write flag mismatch", i, j)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := NewNamedSequence("!"); err == nil {
		t.Error("bare '!' token should be rejected")
	}
	b, err := ParseString("empty", "# only comments\n")
	if err != nil {
		t.Fatalf("comment-only input: %v", err)
	}
	if len(b.Sequences) != 0 {
		t.Errorf("comment-only input produced %d sequences", len(b.Sequences))
	}
	b, err = ParseString("implicit", "a b c\n")
	if err != nil || len(b.Sequences) != 1 {
		t.Fatalf("implicit sequence: err=%v n=%d", err, len(b.Sequences))
	}
}

// TestTextFormatCarriesEveryName pins the names the text format cannot
// carry. Write wraps lines at 100 columns and writes any name, so a
// variable named "seq" that lands at the start of a line became a
// directive on the way back, and one named "#x" a comment: Write now
// refuses such names, and Parse rejects them when it first meets them.
func TestTextFormatCarriesEveryName(t *testing.T) {
	// One line of 33 x "ab", then "seq ab cd": a variable named "seq"
	// past column 100, which Write wrapped onto a line of its own.
	long := strings.Repeat("ab ", 33) + "seq ab cd\n"
	if _, err := ParseString("long", long); err == nil || !strings.Contains(err.Error(), `"seq"`) {
		t.Errorf("Parse of a variable named seq: err = %v, want one naming it", err)
	}
	for _, tc := range []struct {
		tokens []string
		bad    string
	}{
		{append(strings.Fields(strings.Repeat("ab ", 33)), "seq", "ab", "cd"), "seq"},
		{[]string{"#x", "a"}, "#x"},
		{[]string{"a b", "c"}, "a b"},
		{[]string{"c", "d\te"}, "d\te"},
		{[]string{"a!!", "b"}, "a!"},
	} {
		s, err := NewNamedSequence(tc.tokens...)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		err = Write(&sb, &Benchmark{Name: "w", Sequences: []*Sequence{s}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
			t.Errorf("Write of %q: err = %v, want one naming %q", tc.tokens, err, tc.bad)
		}
		if sb.Len() != 0 {
			t.Errorf("Write of %q failed after writing %d bytes", tc.tokens, sb.Len())
		}
	}
	for _, text := range []string{"a #x\n", "a a!!\n", "seq!\n", "x\nb seq\n"} {
		if _, err := ParseString("bad", text); err == nil {
			t.Errorf("Parse(%q) accepted a name Write cannot carry", text)
		}
	}
}

func TestRestrict(t *testing.T) {
	s := NewSequence(0, 1, 2, 0, 1, 2, 0)
	r := s.Restrict(func(v int) bool { return v != 1 })
	if r.Len() != 5 {
		t.Fatalf("restricted length = %d, want 5", r.Len())
	}
	for _, a := range r.Accesses {
		if a.Var == 1 {
			t.Fatal("variable 1 should be filtered out")
		}
	}
	if r.NumVars() != s.NumVars() {
		t.Errorf("restriction changed universe: %d vs %d", r.NumVars(), s.NumVars())
	}
}

func TestValidate(t *testing.T) {
	s := NewSequence(0, 1, 2)
	if err := s.Validate(); err != nil {
		t.Errorf("valid sequence rejected: %v", err)
	}
	bad := &Sequence{Names: []string{"a"}, Accesses: []Access{{Var: 3}}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-universe access accepted")
	}
	neg := &Sequence{Accesses: []Access{{Var: -1}}}
	if err := neg.Validate(); err == nil {
		t.Error("negative access accepted")
	}
}

// Property: for any sequence, Disjoint is symmetric, irreflexive for
// accessed variables that overlap themselves (a variable is never disjoint
// from itself unless absent), and consistent with First/Last.
func TestDisjointProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		vars := make([]int, len(raw))
		for i, r := range raw {
			vars[i] = int(r % 12)
		}
		s := NewSequence(vars...)
		a := Analyze(s)
		n := s.NumVars()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if a.Disjoint(u, v) != a.Disjoint(v, u) {
					return false
				}
				if u != v && a.Accessed(u) && a.Accessed(v) && a.Disjoint(u, v) {
					// Disjointness must match the interval definition.
					if !(a.Last[u] < a.First[v] || a.Last[v] < a.First[u]) {
						return false
					}
				}
			}
			if a.Accessed(u) && a.Disjoint(u, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDistinctAndCounts(t *testing.T) {
	s, _ := NewNamedSequence("a", "b!", "a", "c!")
	if got := s.Writes(); got != 2 {
		t.Errorf("Writes = %d, want 2", got)
	}
	if got := s.Reads(); got != 2 {
		t.Errorf("Reads = %d, want 2", got)
	}
	d := s.Distinct()
	if len(d) != 3 {
		t.Errorf("Distinct = %v, want 3 entries", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := NewSequence(0, 1, 2)
	c := s.Clone()
	c.Append(5, true)
	if s.Len() != 3 {
		t.Error("Clone shares access storage with original")
	}
	if c.NumVars() != 6 {
		t.Errorf("clone NumVars = %d, want 6", c.NumVars())
	}
}

func TestStringElision(t *testing.T) {
	vars := make([]int, 200)
	for i := range vars {
		vars[i] = rand.Intn(5)
	}
	s := NewSequence(vars...)
	str := s.String()
	if !strings.Contains(str, "more)") {
		t.Errorf("long sequence should be elided, got %q", str[:40])
	}
}

func TestBenchmarkStats(t *testing.T) {
	s1 := NewSequence(0, 1, 2, 3)
	s2 := NewSequence(0, 1)
	b := &Benchmark{Name: "x", Sequences: []*Sequence{s1, s2}}
	if b.TotalAccesses() != 6 {
		t.Errorf("TotalAccesses = %d, want 6", b.TotalAccesses())
	}
	if b.MaxVars() != 4 {
		t.Errorf("MaxVars = %d, want 4", b.MaxVars())
	}
	if b.MaxLen() != 4 {
		t.Errorf("MaxLen = %d, want 4", b.MaxLen())
	}
}
