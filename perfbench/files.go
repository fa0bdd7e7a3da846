package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	racetrack "repro"
	"repro/internal/placement"
	"repro/internal/sim"
)

// maxPricingError bounds the relative disagreement between the cost
// model's priced energy and runtime and the simulator's.
const maxPricingError = 1e-9

// offsetStone generates the OffsetStone suite, or its first n
// benchmarks in name order when n > 0.
func offsetStone(n int) ([]*racetrack.Benchmark, error) {
	names := racetrack.BenchmarkNames()
	if n > 0 && n < len(names) {
		names = names[:n]
	}
	out := make([]*racetrack.Benchmark, len(names))
	for i, name := range names {
		b, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// scaledCount is n scaled down for the unit tests (at least 1).
func scaledCount(n int, scale float64) int {
	if scale >= 1 {
		return n
	}
	return max(1, int(float64(n)*scale))
}

// filesJob is one rtmplace invocation without the process start: decode
// one file, build a Lab, place every sequence, simulate every sequence.
type filesJob struct {
	path     string
	binary   bool
	strategy racetrack.Strategy
	dbcs     int
	accesses int64
}

// filesWorkload runs rtmplace's path over the OffsetStone suite written
// as text and binary files: 31 benchmarks × 2 formats × 5 heuristics ×
// 4 Table I DBC counts = 1240 jobs per pass.
type filesWorkload struct {
	scale float64
	jobs  []filesJob
	reg   *placement.Registry // the traced replay's strategies
}

func (w *filesWorkload) setup(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	benches, err := offsetStone(scaledCount(31, w.scale))
	if err != nil {
		return err
	}
	w.jobs = w.jobs[:0]
	for _, b := range benches {
		for _, binary := range []bool{false, true} {
			path := filepath.Join(dir, b.Name+".txt")
			write := racetrack.WriteBenchmark
			if binary {
				path = filepath.Join(dir, b.Name+".rtb")
				write = racetrack.WriteBinaryBenchmark
			}
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := write(f, b)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return fmt.Errorf("writing %s: %w", path, werr)
			}
			for _, st := range heuristicNames {
				for _, q := range racetrack.TableIDBCCounts() {
					w.jobs = append(w.jobs, filesJob{path: path, binary: binary, strategy: racetrack.Strategy(st), dbcs: q, accesses: int64(b.TotalAccesses())})
				}
			}
		}
	}
	if w.reg, err = placement.NewRegistry(); err != nil {
		return err
	}
	// Warm-up: ten jobs spread over the job list.
	for i := 0; i < len(w.jobs); i += max(1, len(w.jobs)/10) {
		if _, _, err := w.runJob(ctx, w.jobs[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// decode reads a job's file as rtmplace does.
func (j filesJob) decode() (*racetrack.Benchmark, error) {
	f, err := os.Open(j.path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if j.binary {
		return racetrack.ReadBinaryBenchmark(j.path, f)
	}
	return racetrack.ReadBenchmark(j.path, f)
}

func (j filesJob) options() racetrack.PlaceOptions {
	return racetrack.PlaceOptions{Strategy: j.strategy, DBCs: j.dbcs, Workers: 1, Objective: "energy"}
}

// jobStats is what a job reports besides its totals.
type jobStats struct {
	kernelHits, kernelLookups int64
	failures                  []string
}

// runJob is the untraced job: the public calls rtmplace makes.
func (w *filesWorkload) runJob(ctx context.Context, j filesJob) (totals, jobStats, error) {
	var st jobStats
	b, err := j.decode()
	if err != nil {
		return totals{}, st, err
	}
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return totals{}, st, err
	}
	res, err := lab.PlaceBenchmark(ctx, b, j.options())
	if err != nil {
		return totals{}, st, err
	}
	dev, err := racetrack.TableIDevice(j.dbcs)
	if err != nil {
		return totals{}, st, err
	}
	var agg racetrack.SimResult
	for i, s := range b.Sequences {
		r, err := lab.SimulateOn(ctx, dev, s, res.Results[i].Placement)
		if err != nil {
			return totals{}, st, err
		}
		agg.Add(r)
		st.failures = append(st.failures, checkPricing(j, i, res.Results[i], r)...)
	}
	hits, misses := lab.KernelCacheStats()
	st.kernelHits, st.kernelLookups = hits, hits+misses
	return totals{Shifts: agg.Counts.Shifts, EnergyPJ: agg.Energy.TotalPJ(), TimeNS: agg.LatencyNS}, st, nil
}

// checkPricing compares the Lab's placement result with the simulator's
// replay of it: equal shifts, and priced energy and runtime equal to the
// simulated ones.
func checkPricing(j filesJob, seq int, pr *racetrack.PlaceResult, r racetrack.SimResult) []string {
	var fails []string
	where := fmt.Sprintf("%s %s q=%d seq %d", filepath.Base(j.path), j.strategy, j.dbcs, seq)
	if r.Counts.Shifts != pr.Shifts {
		fails = append(fails, fmt.Sprintf("%s: simulator counts %d shifts, Lab %d", where, r.Counts.Shifts, pr.Shifts))
	}
	if pr.Cost == nil {
		return append(fails, where+": no priced cost")
	}
	if d := relDiff(pr.Cost.TotalEnergyPJ(), r.Energy.TotalPJ()); d > maxPricingError {
		fails = append(fails, fmt.Sprintf("%s: priced energy %g pJ vs simulated %g pJ", where, pr.Cost.TotalEnergyPJ(), r.Energy.TotalPJ()))
	}
	if d := relDiff(pr.Cost.RuntimeNS, r.LatencyNS); d > maxPricingError {
		fails = append(fails, fmt.Sprintf("%s: priced runtime %g ns vs simulated %g ns", where, pr.Cost.RuntimeNS, r.LatencyNS))
	}
	return fails
}

func (w *filesWorkload) pass(ctx context.Context, rng *rand.Rand) (*passResult, error) {
	p := &passResult{latMS: make([]float64, 0, len(w.jobs)), counts: make(map[string]float64)}
	per := make([]totals, len(w.jobs))
	for _, i := range rng.Perm(len(w.jobs)) {
		j := w.jobs[i]
		t0 := startJob()
		t, st, err := w.runJob(ctx, j)
		p.record(t0)
		p.attempted++
		if err != nil {
			p.fail("%s %s q=%d: %v", filepath.Base(j.path), j.strategy, j.dbcs, err)
			continue
		}
		per[i] = t
		p.accesses += j.accesses
		p.failures = append(p.failures, st.failures...)
		p.counts[cntKernelHits] += float64(st.kernelHits)
		p.counts[cntKernelLookups] += float64(st.kernelLookups)
	}
	p.totals = sumTotals(per)
	return p, nil
}

// tracedPass replays each job's public calls stage by stage: the same
// decode, Lab construction and simulation calls, with PlaceBenchmark
// unrolled into the kernel builds, strategy runs, attributions and
// pricing it performs.
func (w *filesWorkload) tracedPass(ctx context.Context, rng *rand.Rand, tr *tracer) (*passResult, error) {
	p := &passResult{latMS: make([]float64, 0, len(w.jobs)), counts: make(map[string]float64)}
	per := make([]totals, len(w.jobs))
	for _, i := range rng.Perm(len(w.jobs)) {
		j := w.jobs[i]
		t0 := startJob()
		t, err := w.traceJob(ctx, j, tr, p.counts)
		p.record(t0)
		p.attempted++
		if err != nil {
			p.fail("traced %s %s q=%d: %v", filepath.Base(j.path), j.strategy, j.dbcs, err)
			continue
		}
		per[i] = t
		p.accesses += j.accesses
	}
	p.totals = sumTotals(per)
	return p, nil
}

func (w *filesWorkload) traceJob(ctx context.Context, j filesJob, tr *tracer, counts map[string]float64) (totals, error) {
	tr.startJob("files.job")
	defer tr.end()
	var b *racetrack.Benchmark
	decodeSpan := spanTextDecode
	if j.binary {
		decodeSpan = spanBinDecode
	}
	err := tr.stage(decodeSpan, func() (err error) {
		b, err = j.decode()
		return err
	})
	if err != nil {
		return totals{}, err
	}
	counts[cntDecodedAccesses] += float64(b.TotalAccesses())
	if err := tr.stage(spanNewLab, func() error {
		_, err := racetrack.New(racetrack.WithWorkers(1))
		return err
	}); err != nil {
		return totals{}, err
	}
	places, err := replayPlace(ctx, w.reg, tr, counts, newKernelSource(racetrack.DefaultKernelCacheSize), b.Sequences, j.options())
	if err != nil {
		return totals{}, err
	}
	dev, err := sim.TableIConfig(j.dbcs)
	if err != nil {
		return totals{}, err
	}
	var agg racetrack.SimResult
	for i, s := range b.Sequences {
		var r racetrack.SimResult
		if err := tr.stage(spanSimRun, func() (err error) {
			r, err = sim.RunSequence(dev, s, places[i].Placement)
			return err
		}); err != nil {
			return totals{}, err
		}
		agg.Add(r)
		counts[cntSimAccesses] += float64(s.Len())
	}
	return totals{Shifts: agg.Counts.Shifts, EnergyPJ: agg.Energy.TotalPJ(), TimeNS: agg.LatencyNS}, nil
}

func (w *filesWorkload) verify(context.Context) []string { return nil }

// sumTotals adds per-job totals in canonical job order.
func sumTotals(per []totals) totals {
	var t totals
	for _, x := range per {
		t.Shifts += x.Shifts
		t.EnergyPJ += x.EnergyPJ
		t.TimeNS += x.TimeNS
	}
	return t
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
