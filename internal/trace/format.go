package trace

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"strings"
)

// The plain-text trace format, one benchmark per file:
//
//	# comment lines start with '#'
//	seq <name>            begins a new access sequence (name optional)
//	a b a c! b            whitespace-separated accesses; '!' marks a write
//
// Variables are named tokens; each sequence has its own variable universe,
// numbered in order of first appearance, matching the offset-assignment
// convention that sequences are independent placement problems.

// Benchmark is a named collection of access sequences. OffsetStone-style
// workloads contain one sequence per compiled function.
type Benchmark struct {
	Name      string
	Sequences []*Sequence
}

// TotalAccesses sums the lengths of all sequences.
func (b *Benchmark) TotalAccesses() int {
	t := 0
	for _, s := range b.Sequences {
		t += s.Len()
	}
	return t
}

// MaxVars returns the largest variable universe across sequences.
func (b *Benchmark) MaxVars() int {
	m := 0
	for _, s := range b.Sequences {
		if n := s.NumVars(); n > m {
			m = n
		}
	}
	return m
}

// MaxLen returns the longest sequence length.
func (b *Benchmark) MaxLen() int {
	m := 0
	for _, s := range b.Sequences {
		if s.Len() > m {
			m = s.Len()
		}
	}
	return m
}

// Parse reads a benchmark in the text format. Accesses that appear before
// any "seq" directive form an implicit first sequence.
//
// Parse reads all of r in one allocation when r reports its length
// (strings, byte buffers, regular files), then tokenizes the text in
// place: each sequence's accesses are counted first and allocated once
// at their final length, and the only other per-token work is the name
// table's lookup. Each sequence's names are copied out of the text, so
// the benchmark does not keep the text alive. (The decoded benchmark is an
// in-RAM structure; the out-of-core path is the binary format of
// binfmt.go.)
func Parse(name string, r io.Reader) (*Benchmark, error) {
	text, err := readText(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading %s: %w", name, err)
	}
	return parseText(name, text)
}

// ParseString parses a benchmark in the text format from a literal.
func ParseString(name, text string) (*Benchmark, error) {
	return parseText(name, text)
}

// readText reads all of r, sized from r's length when it reports one.
func readText(r io.Reader) (string, error) {
	var sb strings.Builder
	switch v := r.(type) {
	case interface{ Len() int }:
		sb.Grow(v.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() && fi.Size() <= maxTextHint {
			sb.Grow(int(fi.Size()))
		}
	}
	_, err := io.Copy(&sb, r)
	return sb.String(), err
}

// maxTextHint bounds the allocation readText trusts a file's size for;
// a larger file grows the buffer as it is read.
const maxTextHint = 1 << 30

// The kinds of line of the text format.
const (
	lineBlank    = iota // empty, blank or a comment
	lineSeq             // a "seq" directive
	lineAccesses        // accesses
)

// textLine returns the kind of the line of text that starts at pos, the
// line without its break, and the position of the next line. A
// directive or comment is told by the line's first token.
func textLine(text string, pos int) (kind int, line string, next int) {
	end, next := len(text), len(text)
	if k := strings.IndexByte(text[pos:], '\n'); k >= 0 {
		end, next = pos+k, pos+k+1
	}
	line = text[pos:end]
	switch i, j := field(line, 0, false); {
	case i == j || line[i] == '#':
		return lineBlank, line, next
	case line[i:j] == "seq":
		return lineSeq, line, next
	}
	return lineAccesses, line, next
}

// parseText parses the text format from text.
func parseText(name, text string) (*Benchmark, error) {
	b := &Benchmark{Name: name}
	t := getNameTable()
	defer t.release()
	for pos, opened := 0, false; ; opened = true {
		// The sequence's body runs to the next directive; count its
		// accesses, so that they are allocated once.
		n, end := 0, pos
		for end < len(text) {
			kind, line, next := textLine(text, end)
			if kind == lineSeq {
				break
			}
			if kind == lineAccesses {
				n += countTokens(line, false)
			}
			end = next
		}
		if opened || n > 0 {
			s, err := t.parseBody(text, pos, end, n)
			if err != nil {
				return nil, err
			}
			b.Sequences = append(b.Sequences, s)
		}
		if end == len(text) {
			return b, nil
		}
		_, _, pos = textLine(text, end) // the directive's optional name is informational only
	}
}

// parseBody parses the n accesses of the lines of text in [pos, end)
// into a sequence. Each new name is checked against what Write can
// carry, and the names are copied out of text, so that the sequence
// does not keep it alive.
func (t *nameTable) parseBody(text string, pos, end, n int) (*Sequence, error) {
	s := &Sequence{Accesses: make([]Access, n)}
	t.reset()
	k := 0
	for pos < end {
		kind, line, next := textLine(text, pos)
		for lp := 0; kind == lineAccesses; {
			i, j, key := t.scan(line, lp, false)
			if i == j {
				break
			}
			name, write := splitWrite(line[i:j])
			if name == "" {
				return nil, fmt.Errorf("trace: line %d: empty variable name in token %q", lineOf(text, pos+i), line[i:j])
			}
			id := t.find(name, key)
			if id < 0 {
				if why := unwritable(name); why != "" {
					return nil, fmt.Errorf("trace: line %d: variable name %q %s", lineOf(text, pos+i), name, why)
				}
				id = t.add(name, key)
			}
			s.Accesses[k] = Access{Var: id, Write: write}
			k++
			lp = j
		}
		pos = next
	}
	s.Names = t.takeNames(true)
	return s, nil
}

// lineOf returns the 1-based line number of text[i].
func lineOf(text string, i int) int {
	return 1 + strings.Count(text[:i], "\n")
}

// unwritable says why the text format cannot carry name as a variable
// name, or returns "" when it can: Parse would read the name back as
// something else (a comment, a directive, a write, several tokens or
// none).
func unwritable(name string) string {
	switch {
	case name == "":
		return "is empty"
	case name == "seq":
		return "is the sequence directive"
	case name[0] == '#':
		return "starts with '#', which begins a comment"
	case name[len(name)-1] == '!':
		return "ends in '!', the write mark"
	}
	for k := 0; k < len(name); k++ {
		if asciiSpace(name[k]) {
			return "contains whitespace"
		}
	}
	return ""
}

// Write renders the benchmark in the text format accepted by Parse. It
// writes nothing and returns an error naming the first variable whose
// name the format cannot carry (see Parse), so that a benchmark Parse
// returned is written back unchanged.
func Write(w io.Writer, b *Benchmark) error {
	for i, s := range b.Sequences {
		for _, n := range s.Names {
			if why := unwritable(n); why != "" {
				return fmt.Errorf("trace: sequence %d: variable name %q %s; the text format cannot carry it", i, n, why)
			}
		}
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# benchmark %s: %d sequences, %d accesses\n",
		b.Name, len(b.Sequences), b.TotalAccesses())
	for i, s := range b.Sequences {
		fmt.Fprintf(bw, "seq s%d\n", i)
		col := 0
		for _, a := range s.Accesses {
			name := s.Name(a.Var)
			n := len(name)
			if a.Write {
				n++ // the write mark
			}
			if col > 0 && col+n+1 > 100 {
				bw.WriteByte('\n')
				col = 0
			}
			if col > 0 {
				bw.WriteByte(' ')
				col++
			}
			bw.WriteString(name)
			if a.Write {
				bw.WriteByte('!')
			}
			col += n
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
