package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
)

// The map-based text paths that the tokenizer and name table replaced,
// kept as the reference FuzzTokenizeParity compares against: request
// traces split by strings.Fields, token lists numbered through a
// map[string]int, and the text format's line loop over bufio.Scanner.
// The line loop carries the format's name rule (a name may not start
// with '#', end in '!' or be "seq") and trims only ASCII whitespace, so
// that everything it accepts, Write writes back unchanged.

// oracleParseSequence parses a request trace.
func oracleParseSequence(text string) (*Sequence, error) {
	return oracleNamedSequence(strings.Fields(text)...)
}

// oracleNamedSequence numbers the names of tokens in order of first
// appearance.
func oracleNamedSequence(tokens ...string) (*Sequence, error) {
	s := &Sequence{}
	index := make(map[string]int)
	for _, tok := range tokens {
		name, write := strings.CutSuffix(tok, "!")
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

// oracleNamedSequenceWithUniverse numbers tokens against a declared
// universe.
func oracleNamedSequenceWithUniverse(universe []string, tokens ...string) (*Sequence, error) {
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
		name, write := strings.CutSuffix(tok, "!")
		id, ok := index[name]
		if !ok {
			return nil, fmt.Errorf("trace: access to undeclared variable %q", name)
		}
		s.Accesses = append(s.Accesses, Access{Var: id, Write: write})
	}
	s.refresh()
	return s, nil
}

// oracleParse reads the text format line by line.
func oracleParse(name string, r io.Reader) (*Benchmark, error) {
	b := &Benchmark{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var cur *Sequence
	var index map[string]int
	begin := func() {
		cur = &Sequence{}
		index = make(map[string]int)
	}
	flush := func() {
		if cur != nil {
			cur.refresh()
			b.Sequences = append(b.Sequences, cur)
			cur = nil
		}
	}

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimFunc(sc.Bytes(), func(r rune) bool { return r < 0x80 && asciiSpace(byte(r)) })
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		fields := strings.FieldsFunc(string(line), func(r rune) bool { return r < 0x80 && asciiSpace(byte(r)) })
		if fields[0] == "seq" {
			flush()
			begin()
			continue
		}
		if cur == nil {
			begin()
		}
		for _, tok := range fields {
			vn, write := strings.CutSuffix(tok, "!")
			if vn == "" {
				return nil, fmt.Errorf("trace: line %d: empty variable name in token %q", lineNo, tok)
			}
			id, ok := index[vn]
			if !ok {
				if vn[0] == '#' || vn == "seq" || strings.HasSuffix(vn, "!") {
					return nil, fmt.Errorf("trace: line %d: variable name %q cannot be written back", lineNo, vn)
				}
				id = len(cur.Names)
				index[vn] = id
				cur.Names = append(cur.Names, vn)
			}
			cur.Accesses = append(cur.Accesses, Access{Var: id, Write: write})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading %s: %w", name, err)
	}
	flush()
	return b, nil
}
