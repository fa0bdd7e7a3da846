package trace

import "io"

// AccessReader streams the accesses of a trace one at a time, the
// abstraction the out-of-core pipeline is built on: the binary-format
// scanner (SeqScanner), the synthetic generator (SynthReader) and the
// in-RAM adapter (SliceReader) all implement it, and consumers — the
// streaming cost-kernel construction, windowed placement — never hold
// more than their own bounded working set regardless of how many
// accesses the reader yields.
//
// Next returns io.EOF after the final access; any other error is a
// source failure (I/O, corruption) and terminates the stream. Readers
// are single-pass and not safe for concurrent use.
type AccessReader interface {
	Next() (Access, error)
}

// SliceReader adapts an in-RAM sequence to the AccessReader interface,
// so every streaming consumer can also run on materialized traces (the
// golden-parity tests pin the streaming paths bit-identical to the
// eager ones through it).
type SliceReader struct {
	accesses []Access
	pos      int
}

// NewSliceReader returns a reader over the sequence's accesses.
func NewSliceReader(s *Sequence) *SliceReader {
	return &SliceReader{accesses: s.Accesses}
}

// Next implements AccessReader.
func (r *SliceReader) Next() (Access, error) {
	if r.pos >= len(r.accesses) {
		return Access{}, io.EOF
	}
	a := r.accesses[r.pos]
	r.pos++
	return a, nil
}
