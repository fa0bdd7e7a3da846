package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testBenchmark builds a small multi-sequence named benchmark.
func testBenchmark(t *testing.T) *Benchmark {
	t.Helper()
	b, err := ParseString("bin", `
seq f
a b a c! b a d d
seq g
x y x y x z! z
seq h
p
`)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBinaryRoundTrip(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary("bin", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Sequences) != len(b.Sequences) {
		t.Fatalf("sequence count %d, want %d", len(got.Sequences), len(b.Sequences))
	}
	for i, s := range b.Sequences {
		if !got.Sequences[i].ContentEqual(s) {
			t.Fatalf("sequence %d changed in round trip:\n got %v\nwant %v", i, got.Sequences[i], s)
		}
	}
}

func TestBinaryRoundTripUnnamed(t *testing.T) {
	s := NewSequence(0, 1, 0, 2, 1, 1, 3, 0)
	s.Accesses[2].Write = true
	b := &Benchmark{Name: "u", Sequences: []*Sequence{s}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary("u", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Sequences[0].ContentEqual(s) {
		t.Fatalf("unnamed round trip changed the sequence: %v vs %v", got.Sequences[0], s)
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	for _, b := range []*Benchmark{
		{Name: "none"},
		{Name: "emptyseq", Sequences: []*Sequence{{}}},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, b); err != nil {
			t.Fatalf("%s: write: %v", b.Name, err)
		}
		got, err := ReadBinary(b.Name, &buf)
		if err != nil {
			t.Fatalf("%s: read: %v", b.Name, err)
		}
		if len(got.Sequences) != len(b.Sequences) {
			t.Fatalf("%s: %d sequences, want %d", b.Name, len(got.Sequences), len(b.Sequences))
		}
	}
}

// TestBinaryScanMatchesEager pins the streaming scanner access-for-
// access to the eager decode, and the verified trailer fingerprint to
// Sequence.Fingerprint (the content-addressed cache key).
func TestBinaryScanMatchesEager(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	br, err := NewBinReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if br.SeqCount() != len(b.Sequences) {
		t.Fatalf("SeqCount %d, want %d", br.SeqCount(), len(b.Sequences))
	}
	for i, want := range b.Sequences {
		sc, err := br.ScanSequence()
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		if sc.NumVars() != want.NumVars() || sc.Len() != int64(want.Len()) {
			t.Fatalf("sequence %d header (%d vars, %d accesses), want (%d, %d)",
				i, sc.NumVars(), sc.Len(), want.NumVars(), want.Len())
		}
		for j := 0; ; j++ {
			a, err := sc.Next()
			if err == io.EOF {
				if j != want.Len() {
					t.Fatalf("sequence %d: EOF after %d of %d accesses", i, j, want.Len())
				}
				break
			}
			if err != nil {
				t.Fatalf("sequence %d access %d: %v", i, j, err)
			}
			if a != want.Accesses[j] {
				t.Fatalf("sequence %d access %d = %v, want %v", i, j, a, want.Accesses[j])
			}
		}
		if sc.Fingerprint() != want.Fingerprint() {
			t.Fatalf("sequence %d fingerprint %#x, want Sequence.Fingerprint %#x",
				i, sc.Fingerprint(), want.Fingerprint())
		}
	}
	if _, err := br.ScanSequence(); err != io.EOF {
		t.Fatalf("past last sequence: %v, want io.EOF", err)
	}
}

// TestBinaryAutoDrain verifies ScanSequence drains a half-read
// predecessor so interleaved partial scans stay positioned.
func TestBinaryAutoDrain(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	br, err := NewBinReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := br.ScanSequence()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Next(); err != nil { // read one access only
		t.Fatal(err)
	}
	sc2, err := br.ScanSequence()
	if err != nil {
		t.Fatalf("second ScanSequence after partial read: %v", err)
	}
	if sc2.NumVars() != b.Sequences[1].NumVars() {
		t.Fatalf("second sequence universe %d, want %d", sc2.NumVars(), b.Sequences[1].NumVars())
	}
}

// readBothSources decodes enc through the buffered decode path (a
// bytes.Reader) and the mapped one (a byteSliceScanner over the same
// bytes, as OpenBin builds for a mapped file) and requires the two to
// agree: both fail with the same error, or both decode the same
// benchmark.
func readBothSources(t *testing.T, label string, enc []byte) (*Benchmark, error) {
	t.Helper()
	buffered, berr := ReadBinary(label, bytes.NewReader(enc))
	mapped, merr := ReadBinary(label, newByteSliceScanner(enc))
	switch {
	case (berr == nil) != (merr == nil):
		t.Fatalf("%s: buffered error %v, mapped error %v", label, berr, merr)
	case berr != nil:
		if berr.Error() != merr.Error() {
			t.Fatalf("%s: buffered error %q, mapped error %q", label, berr, merr)
		}
		return nil, berr
	case len(buffered.Sequences) != len(mapped.Sequences):
		t.Fatalf("%s: %d sequences buffered, %d mapped", label, len(buffered.Sequences), len(mapped.Sequences))
	}
	for i, s := range buffered.Sequences {
		if !s.ContentEqual(mapped.Sequences[i]) {
			t.Fatalf("%s: sequence %d differs between the byte sources", label, i)
		}
	}
	return buffered, nil
}

// TestBinaryTruncationRejected feeds every proper prefix of an encoded
// file to the reader: each must fail cleanly (no panic, no silent
// success) unless it happens to end exactly at a sequence boundary of a
// shorter declared file — impossible here since the count is fixed.
// Both byte sources must report the same error.
func TestBinaryTruncationRejected(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for cut := 0; cut < len(enc); cut++ {
		if _, err := readBothSources(t, fmt.Sprintf("cut %d", cut), enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", cut, len(enc))
		}
	}
}

// TestBinaryCorruptionDetected flips every byte of the encoding in
// turn: each mutation must either error out or decode to internally
// consistent sequences — never panic, and a pure payload/trailer flip
// must be caught by the fingerprint. Both byte sources must agree.
func TestBinaryCorruptionDetected(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5a
		got, err := readBothSources(t, fmt.Sprintf("flip %d", i), mut)
		if err != nil {
			continue
		}
		for j, s := range got.Sequences {
			if verr := s.Validate(); verr != nil {
				t.Fatalf("flip at byte %d: accepted inconsistent sequence %d: %v", i, j, verr)
			}
		}
	}
}

// TestBinaryMalformedTokenRejected ends a payload in a varint that
// binary.Uvarint cannot decode: one cut short (n == 0) and one of eleven
// bytes (n < 0, overflow). Both byte sources must fail with the error
// binary.ReadUvarint gives.
func TestBinaryMalformedTokenRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Benchmark{Name: "m", Sequences: []*Sequence{NewSequence(0)}}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	payload := enc[:len(enc)-9] // drop the one-byte token and the 8-byte trailer
	for _, tc := range []struct {
		tail []byte
		want string
	}{
		{[]byte{0x80, 0x80}, "unexpected EOF"},
		{bytes.Repeat([]byte{0xff}, 11), "overflow"},
	} {
		mut := append(append([]byte(nil), payload...), tc.tail...)
		if _, err := readBothSources(t, fmt.Sprintf("token %x", tc.tail), mut); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("token %x: %v, want an error containing %q", tc.tail, err, tc.want)
		}
	}
}

// refMix is FNV-1a over the eight little-endian bytes of v, one byte at
// a time: the definition binHash.mix must reproduce. It is kept apart
// from binHash so that a fault in the shared helper cannot hide behind
// the scanner-versus-Fingerprint checks, which both run through it.
func refMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// refFingerprint is Sequence.Fingerprint written with refMix.
func refFingerprint(s *Sequence) uint64 {
	h := refMix(fnvOffset64, uint64(s.NumVars()))
	h = refMix(h, uint64(len(s.Names)))
	for _, n := range s.Names {
		for i := 0; i < len(n); i++ {
			h ^= uint64(n[i])
			h *= fnvPrime64
		}
		h ^= 0xff
		h *= fnvPrime64
	}
	for _, a := range s.Accesses {
		v := uint64(a.Var) << 1
		if a.Write {
			v |= 1
		}
		h = refMix(h, v)
	}
	return h
}

// TestBinHashMatchesBytewiseFNV pins binHash.mix, whose values below
// 2^16 take the folded step, to the byte-wise FNV-1a definition at the
// edges of the fold and over random values of every magnitude, and
// Sequence.Fingerprint to the byte-wise reference.
func TestBinHashMatchesBytewiseFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := []uint64{0, 1, 0xff, 0x100, 0xfffe, 0xffff, 0x10000, 0x10001, 1 << 63, math.MaxUint64}
	for i := 0; i < 2000; i++ {
		vals = append(vals, rng.Uint64()>>rng.Intn(64))
	}
	for _, start := range []uint64{fnvOffset64, 0, rng.Uint64()} {
		for _, v := range vals {
			b := binHash{h: start}
			b.mix(v)
			if want := refMix(start, v); b.h != want {
				t.Fatalf("mix(%#x) from %#x = %#x, byte-wise %#x", v, start, b.h, want)
			}
		}
	}
	for _, s := range []*Sequence{
		{},
		NewSequence(0, 1, 0, 2, 0x7fff, 0x8000, 1<<20, 0),
		testBenchmark(t).Sequences[0],
	} {
		s.Accesses = append(s.Accesses, Access{Var: 3, Write: true})
		if got, want := s.Fingerprint(), refFingerprint(s); got != want {
			t.Fatalf("Fingerprint %#x, byte-wise reference %#x, for %v", got, want, s)
		}
	}
}

func TestBinaryVersionRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, &Benchmark{Name: "v"}); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	enc[4] = 0xfe // version low byte
	if _, err := ReadBinary("v", bytes.NewReader(enc)); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestBinWriterMisuse(t *testing.T) {
	var buf bytes.Buffer
	bw, err := NewBinWriter(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(Access{}); err == nil {
		t.Fatal("Append outside a sequence accepted")
	}
	if err := bw.BeginSequence(2, 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := bw.EndSequence(); err == nil {
		t.Fatal("short sequence accepted")
	}
}

// TestOpenBin exercises the file backend (the mmap path on Linux, the
// chunked fallback elsewhere) against the in-memory decode.
func TestOpenBin(t *testing.T) {
	b := testBenchmark(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.rtb")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	bf, err := OpenBin(path)
	if err != nil {
		t.Fatal(err)
	}
	defer bf.Close()
	for i, want := range b.Sequences {
		sc, err := bf.Reader().ScanSequence()
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		n := 0
		for {
			a, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("sequence %d: %v", i, err)
			}
			if a != want.Accesses[n] {
				t.Fatalf("sequence %d access %d = %v, want %v", i, n, a, want.Accesses[n])
			}
			n++
		}
		if n != want.Len() {
			t.Fatalf("sequence %d: %d accesses, want %d", i, n, want.Len())
		}
	}
	if err := bf.Close(); err != nil {
		t.Fatal(err)
	}
}
