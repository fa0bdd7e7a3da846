package offsetstone

import (
	"testing"

	"repro/internal/trace"
)

func TestCatalogMatchesPaperFig4(t *testing.T) {
	names := Names()
	if len(names) != 31 {
		t.Fatalf("catalog has %d benchmarks, want the 31 listed on the paper's Fig. 4 axis", len(names))
	}
	want := []string{"8051", "adpcm", "anagram", "anthr", "bdd", "bison",
		"cavity", "cc65", "codecs", "cpp", "dct", "dspstone", "eqntott",
		"f2c", "fft", "flex", "fuzzy", "gif2asc", "gsm", "gzip", "h263",
		"hmm", "jpeg", "klt", "lpsolve", "motion", "mp3", "mpeg2",
		"sparse", "triangle", "viterbi"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("catalog[%d] = %q, want %q", i, names[i], w)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate("gsm")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate("gsm")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sequences) != len(b.Sequences) {
		t.Fatalf("nondeterministic sequence count: %d vs %d", len(a.Sequences), len(b.Sequences))
	}
	for i := range a.Sequences {
		x, y := a.Sequences[i], b.Sequences[i]
		if x.Len() != y.Len() {
			t.Fatalf("seq %d lengths differ: %d vs %d", i, x.Len(), y.Len())
		}
		for j := range x.Accesses {
			if x.Accesses[j] != y.Accesses[j] {
				t.Fatalf("seq %d access %d differs", i, j)
			}
		}
	}
}

func TestGenerateUnknown(t *testing.T) {
	if _, err := Generate("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestProfilesRespectBounds(t *testing.T) {
	for _, name := range Names() {
		b, err := Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := ProfileFor(name)
		if len(b.Sequences) != p.Sequences {
			t.Errorf("%s: %d sequences, want %d", name, len(b.Sequences), p.Sequences)
		}
		for i, s := range b.Sequences {
			if err := s.Validate(); err != nil {
				t.Errorf("%s seq %d invalid: %v", name, i, err)
			}
			if s.NumVars() < p.MinVars || s.NumVars() > p.MaxVars {
				t.Errorf("%s seq %d: %d vars outside [%d,%d]", name, i, s.NumVars(), p.MinVars, p.MaxVars)
			}
			// Length may exceed MaxLen never; it may exceed MinLen check
			// (generator raises length to nv when needed).
			if s.Len() > p.MaxLen && s.Len() > s.NumVars() {
				t.Errorf("%s seq %d: length %d exceeds max %d", name, i, s.Len(), p.MaxLen)
			}
			if s.Len() == 0 {
				t.Errorf("%s seq %d: empty", name, i)
			}
		}
	}
}

func TestSuiteSpansPublishedRanges(t *testing.T) {
	suite := Suite()
	if len(suite) != 31 {
		t.Fatalf("suite size %d", len(suite))
	}
	maxVars, maxLen := 0, 0
	minVars := 1 << 30
	for _, b := range suite {
		for _, s := range b.Sequences {
			if n := s.NumVars(); n > maxVars {
				maxVars = n
			}
			if n := s.NumVars(); n < minVars {
				minVars = n
			}
			if s.Len() > maxLen {
				maxLen = s.Len()
			}
		}
	}
	// Published ranges: 1..1336 variables, sequence lengths 1..3640. The
	// generator must produce instances near the top of both ranges
	// (lpsolve) without exceeding them.
	if maxVars > 1336 {
		t.Errorf("max vars %d exceeds published 1336", maxVars)
	}
	if maxVars < 600 {
		t.Errorf("max vars %d; suite should contain large instances (lpsolve-like)", maxVars)
	}
	if maxLen > 3640 {
		t.Errorf("max len %d exceeds published 3640", maxLen)
	}
	if maxLen < 1500 {
		t.Errorf("max len %d; suite should contain long sequences", maxLen)
	}
}

func TestPhasedStructureExists(t *testing.T) {
	// The generator must actually produce disjoint lifespans for DMA to
	// separate: check that phased benchmarks contain sequences with at
	// least one disjoint pair among non-hot variables.
	b, err := Generate("mpeg2")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range b.Sequences {
		a := trace.Analyze(s)
		n := s.NumVars()
		for u := 0; u < n && !found; u++ {
			for v := u + 1; v < n && !found; v++ {
				if a.Accessed(u) && a.Accessed(v) && a.Disjoint(u, v) {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no disjoint lifespans generated; DMA would have nothing to exploit")
	}
}

func TestLoopStructureExists(t *testing.T) {
	// Loop-heavy benchmarks must show heavy access-graph edges (weight
	// well above 1) for the intra heuristics to exploit.
	b, err := Generate("dct")
	if err != nil {
		t.Fatal(err)
	}
	heavy := false
	for _, s := range b.Sequences {
		// Count each unordered pair of distinct consecutive accesses.
		w := map[[2]int]int{}
		for i := 1; i < len(s.Accesses); i++ {
			u, v := s.Accesses[i-1].Var, s.Accesses[i].Var
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if w[[2]int{u, v}]++; w[[2]int{u, v}] >= 4 {
				heavy = true
			}
		}
	}
	if !heavy {
		t.Error("no heavy edges in a loop-heavy benchmark")
	}
}

func TestWritesGenerated(t *testing.T) {
	b, err := Generate("cpp")
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	total := 0
	for _, s := range b.Sequences {
		writes += s.Writes()
		total += s.Len()
	}
	if writes == 0 {
		t.Error("no writes generated")
	}
	if frac := float64(writes) / float64(total); frac < 0.1 || frac > 0.6 {
		t.Errorf("write fraction %.2f outside plausible range", frac)
	}
}

func TestGenerateProfileCustom(t *testing.T) {
	p := Profile{Name: "custom", Sequences: 2, MinVars: 1, MaxVars: 1,
		MinLen: 1, MaxLen: 5, Phases: 1, Loopiness: 0, HotFraction: 0, WriteFraction: 0}
	b := GenerateProfile(p)
	if len(b.Sequences) != 2 {
		t.Fatalf("sequences = %d", len(b.Sequences))
	}
	for _, s := range b.Sequences {
		if s.NumVars() != 1 {
			t.Errorf("vars = %d, want 1", s.NumVars())
		}
	}
}
