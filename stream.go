package racetrack

import (
	"context"
	"fmt"
	"io"

	"repro/internal/placement"
	"repro/internal/trace"
)

// Out-of-core trace support: the compact binary trace format, streaming
// access readers, synthetic large-trace generation, and windowed
// placement of streams that never fit in memory (DESIGN.md §12).

// Access is one element of an access sequence: a variable index plus a
// read/write flag.
type Access = trace.Access

// AccessReader streams accesses one at a time; Next returns io.EOF after
// the last access. Binary trace scanners, synthetic generators and
// in-RAM sequence adapters all implement it, and Lab.PlaceStream and
// NewStreamCostKernel consume any implementation.
type AccessReader = trace.AccessReader

// NewSequenceReader adapts an in-RAM sequence to the AccessReader
// interface.
func NewSequenceReader(s *Sequence) AccessReader { return trace.NewSliceReader(s) }

// WriteBinaryBenchmark encodes the benchmark in the compact binary trace
// format: varint-delta access tokens with a verified content fingerprint
// per sequence, typically several times smaller than the text format and
// decodable access-by-access in constant memory (see internal/trace).
func WriteBinaryBenchmark(w io.Writer, b *Benchmark) error {
	return trace.WriteBinary(w, b)
}

// ReadBinaryBenchmark eagerly decodes a binary-format benchmark into
// RAM — the binary-format counterpart of ReadBenchmark. For traces too
// large to materialize, use OpenBinaryTrace and scan instead.
func ReadBinaryBenchmark(name string, r io.Reader) (*Benchmark, error) {
	return trace.ReadBinary(name, r)
}

// BinaryTraceWriter streams a binary trace out without materializing
// it: declare each sequence's universe and length up front, then append
// accesses one at a time (the trailer fingerprint accumulates as you
// go). This is how traces bigger than memory are produced — e.g. from a
// synthetic generator or an instrumentation pipe.
type BinaryTraceWriter = trace.BinWriter

// NewBinaryTraceWriter starts a binary trace of seqCount sequences on w.
func NewBinaryTraceWriter(w io.Writer, seqCount int) (*BinaryTraceWriter, error) {
	return trace.NewBinWriter(w, seqCount)
}

// BinaryTraceReader streams sequences out of a binary-format trace.
type BinaryTraceReader = trace.BinReader

// NewBinaryTraceReader validates the stream header and returns a reader
// whose ScanSequence yields one streaming sequence scanner at a time.
func NewBinaryTraceReader(r io.Reader) (*BinaryTraceReader, error) {
	return trace.NewBinReader(r)
}

// BinaryTraceFile is an opened on-disk binary trace (memory-mapped on
// platforms that support it, chunk-buffered elsewhere).
type BinaryTraceFile = trace.BinFile

// OpenBinaryTrace opens a binary trace file for streaming scans without
// loading it into memory.
func OpenBinaryTrace(path string) (*BinaryTraceFile, error) { return trace.OpenBin(path) }

// SequenceScanner streams one sequence's accesses out of a binary trace;
// it implements AccessReader and verifies the sequence fingerprint at
// EOF.
type SequenceScanner = trace.SeqScanner

// SynthConfig parameterizes deterministic synthetic trace generation:
// seeded, Zipf-popularity, loop-structured access streams of any length,
// generated on the fly in O(loop body) memory.
type SynthConfig = trace.SynthConfig

// NewSynthReader streams the configured synthetic trace; equal configs
// yield bit-identical streams.
func NewSynthReader(cfg SynthConfig) (AccessReader, error) { return trace.NewSynthReader(cfg) }

// StreamWindow is the default accesses-per-window granularity of
// Lab.PlaceStream when PlaceOptions.Window is 0.
const StreamWindow = placement.DefaultStreamWindow

// StreamResult reports a finished streamed placement: the stitched total
// shift count and its window/migration decomposition.
type StreamResult = placement.StreamResult

// NewStreamCostKernel builds a CostKernel from an access stream without
// materializing the sequence: bit-identical to NewCostKernel on the same
// accesses, with a working set proportional to the stream's distinct
// variables and window shapes rather than its length. The returned
// kernel has no bound sequence (Sequence returns nil).
func NewStreamCostKernel(numVars int, r AccessReader) (*CostKernel, error) {
	return placement.NewCostKernelStream(numVars, r)
}

// PlaceStream places an access stream too large to hold in memory:
// the stream is consumed window by window (PlaceOptions.Window accesses
// each), every window is placed independently with the selected strategy
// and the Lab's defaults, and the window layouts are stitched into one
// continuous execution — per-DBC port positions persist across windows,
// and variables whose location changes between consecutive windows are
// charged an explicit migration (a read at the old location and a write
// at the new one) under the same shift model. Memory is O(window), not
// O(stream).
//
// numVars declares the stream's variable universe; every access must lie
// in [0, numVars). With a window no smaller than the stream the result
// equals placing the whole trace at once. The cost model is single-port;
// a Lab whose device has more ports must pin PlaceOptions.Ports to 1 to
// stream. Each placed window is reported to the progress callback as a
// finished cell carrying the cumulative stitched shift count.
func (l *Lab) PlaceStream(ctx context.Context, numVars int, r AccessReader, opts PlaceOptions) (*StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = l.withDefaults(opts)
	model, err := l.costModelFor(opts)
	if err != nil {
		return nil, err
	}
	stOpts := opts.options()
	stOpts.Cost = model // the stitched totals are priced at the boundary
	cfg := placement.StreamConfig{
		NumVars:  numVars,
		DBCs:     opts.DBCs,
		Window:   opts.Window,
		Strategy: opts.Strategy,
		Registry: l.registry,
		Options:  stOpts,
	}
	if l.progress != nil {
		cfg.Progress = func(ev placement.StreamWindowEvent) {
			l.emit(ProgressEvent{
				Cell: ev.Window, Strategy: opts.Strategy, DBCs: opts.DBCs,
				Island: -1, Done: true, Shifts: ev.Shifts,
			})
		}
	}
	res, err := placement.PlaceStreamed(ctx, r, cfg)
	if err != nil {
		if res != nil && ctx.Err() != nil {
			// Deadline-bounded run: the stitched result through the last
			// completed window rides along with the context error, as in
			// Lab.Place's partial-result contract.
			return res, err
		}
		return nil, fmt.Errorf("racetrack: place stream: %w", err)
	}
	return res, nil
}
