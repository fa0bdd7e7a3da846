package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	racetrack "repro"
	"repro/internal/placement"
)

// The stream workload's traces: the CI big-trace shape (512 variables,
// loop repetitions 32–256, one scattered access between loops) at 2^20
// accesses, one fixed generator seed per trace.
const (
	streamTraces   = 8
	streamAccesses = 1 << 20
	streamVars     = 512
	streamDBCs     = 8
	streamSeedBase = 1001
	// scanBlock is how many accesses the traced reader decodes per span.
	scanBlock = 4096
)

func streamConfig(i int, accesses int64) racetrack.SynthConfig {
	return racetrack.SynthConfig{
		Vars: streamVars, Accesses: accesses, Seed: streamSeedBase + int64(i),
		RepMin: 32, RepMax: 256, ScatterLen: 1,
	}
}

// streamWorkload places binary traces out of core with DMA-OFU at
// 8 DBCs, in windows of a quarter trace (the default 2^18 accesses).
type streamWorkload struct {
	scale    float64
	paths    []string
	fps      []uint64 // each trace's fingerprint, as its trailer records it
	accesses int64
	reg      *placement.Registry
}

func (w *streamWorkload) setup(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	n := scaledCount(streamTraces, w.scale)
	w.accesses = streamAccesses
	if w.scale < 1 {
		w.accesses = max(1<<12, int64(float64(streamAccesses)*w.scale))
	}
	w.paths, w.fps = w.paths[:0], w.fps[:0]
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, fmt.Sprintf("synth-%d.rtb", i))
		if err := writeSynth(path, streamConfig(i, w.accesses)); err != nil {
			return err
		}
		fp, err := scanFingerprint(path)
		if err != nil {
			return err
		}
		w.paths, w.fps = append(w.paths, path), append(w.fps, fp)
	}
	var err error
	if w.reg, err = placement.NewRegistry(); err != nil {
		return err
	}
	// Warm-up: one job.
	if _, err := w.runJob(ctx, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

// writeSynth generates a trace straight into the binary encoder, in
// constant memory, as `rtmtrace synth` does.
func writeSynth(path string, cfg racetrack.SynthConfig) error {
	gen, err := racetrack.NewSynthReader(cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw, err := racetrack.NewBinaryTraceWriter(f, 1)
	if err != nil {
		return err
	}
	if err := bw.BeginSequence(cfg.Vars, cfg.Accesses, nil); err != nil {
		return err
	}
	for {
		a, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := bw.Append(a); err != nil {
			return err
		}
	}
	if err := bw.EndSequence(); err != nil {
		return err
	}
	if err := bw.Close(); err != nil {
		return err
	}
	return f.Close()
}

// scanFingerprint scans a single-sequence trace to its verified end.
func scanFingerprint(path string) (uint64, error) {
	bf, err := racetrack.OpenBinaryTrace(path)
	if err != nil {
		return 0, err
	}
	defer bf.Close()
	sc, err := bf.Reader().ScanSequence()
	if err != nil {
		return 0, err
	}
	for {
		if _, err := sc.Next(); err == io.EOF {
			return sc.Fingerprint(), nil
		} else if err != nil {
			return 0, err
		}
	}
}

func (w *streamWorkload) options(strategy racetrack.Strategy) racetrack.PlaceOptions {
	return racetrack.PlaceOptions{Strategy: strategy, DBCs: streamDBCs, Workers: 1, Objective: "energy", Window: int(w.accesses / 4)}
}

// runJob is `rtmplace -format bin -stream` on one trace.
func (w *streamWorkload) runJob(ctx context.Context, i int) (*racetrack.StreamResult, error) {
	bf, err := racetrack.OpenBinaryTrace(w.paths[i])
	if err != nil {
		return nil, err
	}
	defer bf.Close()
	sc, err := bf.Reader().ScanSequence()
	if err != nil {
		return nil, err
	}
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	res, err := lab.PlaceStream(ctx, sc.NumVars(), sc, w.options(racetrack.DMAOFU))
	if err != nil {
		return nil, err
	}
	return res, w.check(i, res, sc.Fingerprint())
}

// check verifies a streamed placement: the stitched total decomposes
// into window and migration shifts, every access was placed, and the
// scan reached the trace's verified end with the expected fingerprint.
func (w *streamWorkload) check(i int, res *racetrack.StreamResult, fp uint64) error {
	switch {
	case res.Shifts != res.WindowShifts+res.MigrationShifts:
		return fmt.Errorf("trace %d: %d shifts != %d window + %d migration", i, res.Shifts, res.WindowShifts, res.MigrationShifts)
	case res.Accesses != w.accesses:
		return fmt.Errorf("trace %d: placed %d of %d accesses", i, res.Accesses, w.accesses)
	case fp != w.fps[i]:
		return fmt.Errorf("trace %d: fingerprint %016x at EOF, want %016x", i, fp, w.fps[i])
	case res.Cost == nil:
		return fmt.Errorf("trace %d: no priced cost", i)
	}
	return nil
}

func streamTotals(res *racetrack.StreamResult) totals {
	return totals{Shifts: res.Shifts, EnergyPJ: res.Cost.TotalEnergyPJ(), TimeNS: res.Cost.RuntimeNS}
}

func (w *streamWorkload) pass(ctx context.Context, rng *rand.Rand) (*passResult, error) {
	p := &passResult{counts: make(map[string]float64)}
	per := make([]totals, len(w.paths))
	for _, i := range rng.Perm(len(w.paths)) {
		t0 := startJob()
		res, err := w.runJob(ctx, i)
		p.record(t0)
		p.attempted++
		if err != nil {
			p.fail("trace %d: %v", i, err)
			continue
		}
		per[i] = streamTotals(res)
		p.accesses += res.Accesses
	}
	p.totals = sumTotals(per)
	return p, nil
}

// tracedPass runs each job's public calls under spans. PlaceStream is
// traced through its public seams: the strategy is a timing wrapper
// registered with WithStrategy, and the trace is read through a reader
// that decodes scanBlock accesses per span. The stream span's own time
// is window compaction, migration stitching and pricing.
func (w *streamWorkload) tracedPass(ctx context.Context, rng *rand.Rand, tr *tracer) (*passResult, error) {
	p := &passResult{counts: make(map[string]float64)}
	per := make([]totals, len(w.paths))
	for _, i := range rng.Perm(len(w.paths)) {
		t0 := startJob()
		tr.startJob("stream.job")
		res, err := w.traceJob(ctx, i, tr)
		tr.end()
		p.record(t0)
		p.attempted++
		if err != nil {
			p.fail("traced trace %d: %v", i, err)
			continue
		}
		per[i] = streamTotals(res)
		p.accesses += res.Accesses
		p.counts[cntDecodedAccesses] += float64(res.Accesses)
		p.counts[cntStreamWindows] += float64(res.Windows)
		p.counts[cntMigratedVars] += float64(res.MigratedVars)
		p.counts[cntMigrationShifts] += float64(res.MigrationShifts)
		p.counts[cntStreamShifts] += float64(res.Shifts)
	}
	p.totals = sumTotals(per)
	return p, nil
}

const tracedDMAOFU = "perfbench-DMA-OFU"

func (w *streamWorkload) traceJob(ctx context.Context, i int, tr *tracer) (*racetrack.StreamResult, error) {
	var (
		bf *racetrack.BinaryTraceFile
		sc *racetrack.SequenceScanner
	)
	err := tr.stage(spanBinScan, func() (err error) {
		if bf, err = racetrack.OpenBinaryTrace(w.paths[i]); err != nil {
			return err
		}
		sc, err = bf.Reader().ScanSequence()
		return err
	})
	if bf != nil {
		defer bf.Close()
	}
	if err != nil {
		return nil, err
	}
	var lab *racetrack.Lab
	timed := func(s *racetrack.Sequence, q int, opts racetrack.StrategyOptions) (*racetrack.Placement, int64, error) {
		tr.begin(spanPlace + string(racetrack.DMAOFU))
		defer tr.end()
		return w.reg.Place(racetrack.DMAOFU, s, q, opts)
	}
	if err := tr.stage(spanNewLab, func() (err error) {
		lab, err = racetrack.New(racetrack.WithWorkers(1), racetrack.WithStrategy(tracedDMAOFU, timed))
		return err
	}); err != nil {
		return nil, err
	}
	var res *racetrack.StreamResult
	if err := tr.stage(spanStreamWindow, func() (err error) {
		res, err = lab.PlaceStream(ctx, sc.NumVars(), &blockReader{src: sc, tr: tr}, w.options(tracedDMAOFU))
		return err
	}); err != nil {
		return nil, err
	}
	return res, w.check(i, res, sc.Fingerprint())
}

// blockReader is the traced run's AccessReader seam: it decodes the
// underlying scanner scanBlock accesses at a time inside a bin_scan
// span and serves the stream from that buffer.
type blockReader struct {
	src  racetrack.AccessReader
	tr   *tracer
	buf  []racetrack.Access
	pos  int
	err  error // the scanner's terminal error (io.EOF at a verified end)
	done bool
}

func (r *blockReader) Next() (racetrack.Access, error) {
	if r.pos == len(r.buf) {
		if r.done {
			return racetrack.Access{}, r.err
		}
		r.fill()
		if r.pos == len(r.buf) {
			return racetrack.Access{}, r.err
		}
	}
	a := r.buf[r.pos]
	r.pos++
	return a, nil
}

func (r *blockReader) fill() {
	r.tr.begin(spanBinScan)
	defer r.tr.end()
	if r.buf == nil {
		r.buf = make([]racetrack.Access, 0, scanBlock)
	}
	r.buf, r.pos = r.buf[:0], 0
	for len(r.buf) < scanBlock {
		a, err := r.src.Next()
		if err != nil {
			r.err, r.done = err, true
			return
		}
		r.buf = append(r.buf, a)
	}
}

func (w *streamWorkload) verify(context.Context) []string { return nil }
