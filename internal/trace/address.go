package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
)

// Address-trace support: raw memory traces, as produced by binary
// instrumentation or simulators, are lists of referenced addresses rather
// than named variables. ParseAddressTrace folds word-aligned addresses
// into memory objects (one variable per distinct word) so the placement
// algorithms can run on them directly — the granularity RTSim operates at.
//
// Accepted line formats (comments with '#', blank lines ignored):
//
//	R 0x1000        read at hex address
//	W 0x1004        write
//	0x1008          bare address, treated as a read
//	4104            decimal addresses are accepted too
type AddressTraceError struct {
	Line int
	Msg  string
}

func (e *AddressTraceError) Error() string {
	return fmt.Sprintf("trace: address trace line %d: %s", e.Line, e.Msg)
}

// ParseAddressTrace reads a raw address trace, mapping each distinct
// aligned word of wordBytes bytes to one variable. Variables are named
// "0x<address>" of their word base and numbered in order of first
// appearance.
func ParseAddressTrace(r io.Reader, wordBytes int) (*Sequence, error) {
	if wordBytes <= 0 {
		return nil, fmt.Errorf("trace: wordBytes must be positive, got %d", wordBytes)
	}
	s := &Sequence{}
	index := make(map[uint64]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		// Tokenize in place from the scanner's buffer: address traces run
		// to hundreds of millions of lines, so per-line []string splits
		// are the dominant allocation cost.
		line := bytes.TrimSpace(sc.Bytes())
		if i := bytes.IndexByte(line, '#'); i >= 0 {
			line = bytes.TrimSpace(line[:i])
		}
		if len(line) == 0 {
			continue
		}
		first, rest := nextField(line)
		second, tail := nextField(rest)
		write := false
		addrTok := first
		switch {
		case len(second) > 0 && len(bytes.TrimSpace(tail)) == 0 &&
			len(first) == 1 && (first[0] == 'R' || first[0] == 'r'):
			addrTok = second
		case len(second) > 0 && len(bytes.TrimSpace(tail)) == 0 &&
			len(first) == 1 && (first[0] == 'W' || first[0] == 'w'):
			write = true
			addrTok = second
		case len(second) == 0:
		default:
			return nil, &AddressTraceError{Line: lineNo, Msg: fmt.Sprintf("unrecognized record %q", line)}
		}
		addr, err := parseAddr(addrTok)
		if err != nil {
			return nil, &AddressTraceError{Line: lineNo, Msg: err.Error()}
		}
		word := addr / uint64(wordBytes)
		id, ok := index[word]
		if !ok {
			id = len(s.Names)
			index[word] = id
			s.Names = append(s.Names, fmt.Sprintf("0x%x", word*uint64(wordBytes)))
		}
		s.Accesses = append(s.Accesses, Access{Var: id, Write: write})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading address trace: %w", err)
	}
	s.refresh()
	return s, nil
}

// parseAddr decodes a decimal or 0x-prefixed hex address without
// allocating (strconv would need a string copy of the scanner's bytes).
// Overflow past uint64 is rejected, matching strconv.ParseUint.
//
//rtm:hotpath
func parseAddr(tok []byte) (uint64, error) {
	base := uint64(10)
	t := tok
	if len(tok) > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X') {
		base = 16
		t = tok[2:]
	}
	if len(t) == 0 {
		return 0, badAddr(tok)
	}
	var v uint64
	for _, c := range t {
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return 0, badAddr(tok)
		}
		if d >= base {
			return 0, badAddr(tok)
		}
		if v > (math.MaxUint64-d)/base {
			return 0, badAddr(tok)
		}
		v = v*base + d
	}
	return v, nil
}

// badAddr builds parseAddr's rejection error — kept out of the
// annotated hot function so the allocation lives on the cold path.
func badAddr(tok []byte) error {
	return fmt.Errorf("bad address %q", tok)
}

// nextField splits the first ASCII-whitespace-separated field off line,
// returning the field and the remainder, without allocating.
//
//rtm:hotpath
func nextField(line []byte) (field, rest []byte) {
	i := 0
	for i < len(line) && asciiSpace(line[i]) {
		i++
	}
	j := i
	for j < len(line) && !asciiSpace(line[j]) {
		j++
	}
	return line[i:j], line[j:]
}
