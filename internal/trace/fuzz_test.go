package trace

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// Fuzz targets for the two trace parsers. `go test` exercises the seed
// corpus; `go test -fuzz` explores further.

func FuzzParse(f *testing.F) {
	f.Add("a b a b c\n")
	f.Add("seq f\nx y! z\nseq g\np p q\n")
	f.Add("# comment\n\nseq only\n")
	f.Add("!\n")
	f.Add(strings.Repeat("v ", 500) + "\n")
	f.Add(strings.Repeat("ab ", 33) + "seq ab cd\n")
	f.Add(manyNames(150, 3) + "\n#x a\n")
	f.Fuzz(func(t *testing.T, input string) {
		b, err := ParseString("fuzz", input)
		if err != nil {
			return // rejecting is fine; crashing is not
		}
		// Anything accepted must be internally consistent and survive a
		// write/parse round trip unchanged.
		for i, s := range b.Sequences {
			if err := s.Validate(); err != nil {
				t.Fatalf("seq %d invalid after parse: %v", i, err)
			}
		}
		var sb strings.Builder
		if err := Write(&sb, b); err != nil {
			t.Fatalf("write failed: %v", err)
		}
		b2, err := ParseString("fuzz2", sb.String())
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if len(b2.Sequences) != len(b.Sequences) {
			t.Fatalf("round trip changed sequence count: %d -> %d",
				len(b.Sequences), len(b2.Sequences))
		}
		for i, s := range b.Sequences {
			if !b2.Sequences[i].ContentEqual(s) {
				t.Fatalf("round trip changed seq %d: %v -> %v", i, s, b2.Sequences[i])
			}
		}
	})
}

// manyNames returns a line of n distinct names, each one a write every
// third access and every name repeated reps times in turn; with
// n in the hundreds it makes a name table grow several times.
func manyNames(n, reps int) string {
	var sb strings.Builder
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "n%d", i)
			if (r*n+i)%3 == 0 {
				sb.WriteByte('!')
			}
			sb.WriteByte(' ')
		}
	}
	return sb.String()
}

// FuzzTokenizeParity pins the tokenizer and name table to the map-based
// paths they replaced (oracle_test.go): the request tokenizer, both
// token-list constructors and the text format must return the
// reference's names and accesses, and fail exactly where it fails.
func FuzzTokenizeParity(f *testing.F) {
	f.Add("a b a b c a c a d d a i e f e f g e g h g i h i")
	f.Add("x y! z\n# c\nseq f\n  p p! q\r\nseq\nseq g h\n")
	f.Add(" \t a!! ! #b seq\vc\fd\n")
	f.Add("a\u00a0b c\u2003d\u3000e\u0085f\xe2\x80 g\xff h\n\u00a0seq x\n")
	f.Add(manyNames(600, 2))
	f.Add(strings.Repeat("a_name_longer_than_any_hash_block_of_sixteen_or_thirty_two_bytes ", 5) +
		strings.Repeat("z", 300) + " " + strings.Repeat("z", 300) + "!")
	f.Fuzz(func(t *testing.T, text string) {
		got, err := ParseSequence(text)
		want, werr := oracleParseSequence(text)
		sameSequence(t, "ParseSequence", got, err, want, werr)

		for _, tokens := range [][]string{strings.Fields(text), strings.Split(text, " ")} {
			got, err := NewNamedSequence(tokens...)
			want, werr := oracleNamedSequence(tokens...)
			sameSequence(t, "NewNamedSequence", got, err, want, werr)
			if werr != nil || len(want.Names) == 0 {
				continue
			}
			universe := append([]string(nil), want.Names...)
			slices.Reverse(universe)
			universe = append(universe, "undeclared", universe[0])
			for _, u := range [][]string{universe[:len(want.Names)], universe[:len(want.Names)+1], universe, universe[1:]} {
				got, err := NewNamedSequenceWithUniverse(u, tokens...)
				want, werr := oracleNamedSequenceWithUniverse(u, tokens...)
				sameSequence(t, "NewNamedSequenceWithUniverse", got, err, want, werr)
			}
		}

		b, err := ParseString("p", text)
		wb, werr := oracleParse("p", strings.NewReader(text))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Parse: err = %v, reference err = %v", err, werr)
		}
		if err != nil {
			return
		}
		if len(b.Sequences) != len(wb.Sequences) {
			t.Fatalf("Parse: %d sequences, reference %d", len(b.Sequences), len(wb.Sequences))
		}
		for i, s := range b.Sequences {
			sameSequence(t, fmt.Sprintf("Parse seq %d", i), s, nil, wb.Sequences[i], nil)
		}
	})
}

// sameSequence fails t unless got and want are both errors or hold the
// same names, universe and accesses.
func sameSequence(t *testing.T, what string, got *Sequence, err error, want *Sequence, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: err = %v, reference err = %v", what, err, werr)
	}
	if err == nil && !got.ContentEqual(want) {
		t.Fatalf("%s: got %d names %q, %v; reference %d names %q, %v",
			what, got.NumVars(), got.Names, got.Accesses, want.NumVars(), want.Names, want.Accesses)
	}
}

// FuzzBinfmtRoundTrip pins the binary format from both directions: any
// text-parseable trace must survive text → binary → scan bit-identically
// to the eager parse, and arbitrary bytes presented as a binary trace —
// including single-byte corruptions of a valid encoding — must be
// rejected or decoded consistently, never panic.
func FuzzBinfmtRoundTrip(f *testing.F) {
	f.Add("a b a b c\n", []byte("RTBF"), 0)
	f.Add("seq f\nx y! z\nseq g\np p q\n", []byte{}, 3)
	f.Add("v0 v1 v0 v0! v2\n", []byte("RTBF\x01\x00\x01\x02\x03"), 7)
	f.Fuzz(func(t *testing.T, text string, raw []byte, flip int) {
		// Arbitrary bytes as binary input: must never panic; anything
		// accepted must be internally consistent.
		if b, err := ReadBinary("raw", bytes.NewReader(raw)); err == nil {
			for i, s := range b.Sequences {
				if verr := s.Validate(); verr != nil {
					t.Fatalf("raw decode seq %d inconsistent: %v", i, verr)
				}
			}
		}

		b, err := ParseString("fuzz", text)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, b); err != nil {
			t.Fatalf("encode of parsed trace failed: %v", err)
		}
		enc := buf.Bytes()

		// Streaming scan must equal the eager parse access for access,
		// with the trailer fingerprint matching the content hash.
		br, err := NewBinReader(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		for i, want := range b.Sequences {
			sc, err := br.ScanSequence()
			if err != nil {
				t.Fatalf("seq %d: %v", i, err)
			}
			if sc.NumVars() != want.NumVars() {
				t.Fatalf("seq %d universe %d, want %d", i, sc.NumVars(), want.NumVars())
			}
			for j := 0; ; j++ {
				a, err := sc.Next()
				if err == io.EOF {
					if j != want.Len() {
						t.Fatalf("seq %d ended at %d of %d", i, j, want.Len())
					}
					break
				}
				if err != nil {
					t.Fatalf("seq %d access %d: %v", i, j, err)
				}
				if a != want.Accesses[j] {
					t.Fatalf("seq %d access %d = %v, want %v", i, j, a, want.Accesses[j])
				}
			}
			if sc.Fingerprint() != want.Fingerprint() {
				t.Fatalf("seq %d fingerprint mismatch", i)
			}
		}

		// A single corrupted byte must never panic, and must never be
		// accepted as a different consistent trace without tripping
		// either a structural error or the fingerprint.
		if len(enc) > 0 {
			mut := append([]byte(nil), enc...)
			i := flip % len(mut)
			if i < 0 {
				i += len(mut)
			}
			mut[i] ^= 0x41
			if got, err := ReadBinary("mut", bytes.NewReader(mut)); err == nil {
				for j, s := range got.Sequences {
					if verr := s.Validate(); verr != nil {
						t.Fatalf("corrupt decode seq %d inconsistent: %v", j, verr)
					}
				}
			}
		}

		// Truncations must be rejected.
		if len(enc) > 1 {
			cut := flip % len(enc)
			if cut < 0 {
				cut += len(enc)
			}
			if _, err := ReadBinary("trunc", bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("truncation at %d of %d accepted", cut, len(enc))
			}
		}
	})
}

func FuzzParseAddressTrace(f *testing.F) {
	f.Add("R 0x1000\nW 0x1004\n0x1008\n", 4)
	f.Add("4096\n4097\n", 8)
	f.Add("# nothing\n", 4)
	f.Add("W 0xffffffffffffffff\n", 1)
	f.Fuzz(func(t *testing.T, input string, word int) {
		if word <= 0 || word > 64 {
			word = 4
		}
		s, err := ParseAddressTrace(strings.NewReader(input), word)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted trace invalid: %v", err)
		}
		if s.Writes()+s.Reads() != s.Len() {
			t.Fatal("read/write accounting broken")
		}
	})
}
