package frontend

import (
	"strings"
	"testing"

	"repro/internal/placement"
)

// testRegistry resolves the tests' strategy names: a fresh registry
// seeded with the builtins.
var testRegistry = func() *placement.Registry {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return reg
}()

func TestParseAndEmitBasic(t *testing.T) {
	src := `
# a tiny function
func f
  var a b c
  a = b + c
  c += a
end
`
	b, err := Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sequences) != 1 {
		t.Fatalf("sequences = %d", len(b.Sequences))
	}
	s := b.Sequences[0]
	// a = b + c  -> read b, read c, write a
	// c += a     -> read c, read a, write c
	want := []struct {
		name  string
		write bool
	}{
		{"b", false}, {"c", false}, {"a", true},
		{"c", false}, {"a", false}, {"c", true},
	}
	if s.Len() != len(want) {
		t.Fatalf("trace length %d, want %d: %v", s.Len(), len(want), s)
	}
	for i, w := range want {
		if s.Name(s.Var(i)) != w.name || s.Accesses[i].Write != w.write {
			t.Errorf("access %d = %s/%v, want %s/%v",
				i, s.Name(s.Var(i)), s.Accesses[i].Write, w.name, w.write)
		}
	}
}

func TestLoopsReplay(t *testing.T) {
	src := `
func f
  loop 3
    x = x + 1
  end
end
`
	b, err := Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := b.Sequences[0]
	// Each iteration: read x, write x -> 6 accesses.
	if s.Len() != 6 {
		t.Fatalf("loop trace length %d, want 6", s.Len())
	}
	if s.Writes() != 3 {
		t.Errorf("writes = %d, want 3", s.Writes())
	}
}

func TestNestedLoops(t *testing.T) {
	src := `
func f
  loop 2
    loop 3
      a = a + b
    end
    c = a
  end
end
`
	b, err := Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	// Inner: 3 x (a, b, a!) = 9 per outer iter; plus (a, c!) = 2 -> 11 x 2 = 22.
	if got := b.Sequences[0].Len(); got != 22 {
		t.Fatalf("nested trace length %d, want 22", got)
	}
}

func TestMultipleFunctions(t *testing.T) {
	src := `
func first
  a = b
end
func second
  x = y * z
end
`
	b, err := Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Sequences) != 2 {
		t.Fatalf("sequences = %d, want 2", len(b.Sequences))
	}
	// Sequences have independent variable universes.
	if b.Sequences[0].NumVars() != 2 || b.Sequences[1].NumVars() != 3 {
		t.Errorf("universes = %d/%d, want 2/3",
			b.Sequences[0].NumVars(), b.Sequences[1].NumVars())
	}
}

func TestCompoundOperators(t *testing.T) {
	for _, op := range []string{"+=", "-=", "*="} {
		src := "func f\n a " + op + " b\nend\n"
		b, err := Compile("t", src)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		s := b.Sequences[0]
		// read a (compound), read b, write a.
		if s.Len() != 3 || !s.Accesses[2].Write {
			t.Errorf("%s: trace %v", op, s)
		}
		if s.Name(s.Var(0)) != "a" {
			t.Errorf("%s: compound assignment must read target first", op)
		}
	}
}

func TestLiteralsAndParensTouchNoMemory(t *testing.T) {
	src := `
func f
  a = ( b + 42 ) * 7
end
`
	b, err := Compile("t", src)
	if err != nil {
		t.Fatal(err)
	}
	s := b.Sequences[0]
	if s.Len() != 2 { // read b, write a
		t.Fatalf("trace %v, want [b a!]", s)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"toplevel stmt", "a = b\n"},
		{"missing end", "func f\n a = b\n"},
		{"nested func", "func f\nfunc g\nend\nend\n"},
		{"bad loop count", "func f\nloop x\nend\nend\n"},
		{"negative loop", "func f\nloop -1\nend\nend\n"},
		{"bad target", "func f\n 3 = b\nend\n"},
		{"no assignment", "func f\n frobnicate\nend\n"},
		{"empty var", "func f\n var\nend\n"},
		{"bad token", "func f\n a = b $ c\nend\n"},
		{"empty file", "\n# nothing\n"},
		{"func without name", "func\nend\n"},
	}
	for _, c := range cases {
		if _, err := Compile("t", c.src); err == nil {
			t.Errorf("%s: accepted %q", c.name, c.src)
		} else if _, ok := err.(*ParseError); !ok {
			t.Errorf("%s: error is %T, want *ParseError", c.name, err)
		}
	}
}

func TestParseErrorMessage(t *testing.T) {
	_, err := Compile("t", "func f\n 3 = b\nend\n")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("got %T", err)
	}
	if pe.Line != 2 || !strings.Contains(pe.Error(), "line 2") {
		t.Errorf("error = %v, want line 2", pe)
	}
}

// End to end: a staged program compiled by the frontend exhibits the
// disjoint-lifespan structure DMA exploits, and DMA beats AFD on it.
func TestCompiledProgramPlacement(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("func staged\n")
	for stage := 0; stage < 8; stage++ {
		sb.WriteString("  loop 6\n")
		t1 := string(rune('a' + stage))
		sb.WriteString("    acc" + t1 + " += in" + t1 + " * w" + t1 + "\n")
		sb.WriteString("  end\n")
	}
	sb.WriteString("end\n")
	b, err := Compile("staged", sb.String())
	if err != nil {
		t.Fatal(err)
	}
	s := b.Sequences[0]
	_, afd, err := testRegistry.Place(placement.StrategyAFDOFU, s, 4, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, dma, err := testRegistry.Place(placement.StrategyDMAOFU, s, 4, placement.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dma >= afd {
		t.Errorf("DMA (%d) should beat AFD (%d) on staged compiled code", dma, afd)
	}
}

func TestEmitEmptyFunc(t *testing.T) {
	prog, err := Parse("func f\nend\n")
	if err != nil {
		t.Fatal(err)
	}
	s, err := EmitFunc(prog.Funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Errorf("empty func produced %d accesses", s.Len())
	}
}
