package main

import (
	"context"
	"fmt"
	"math/rand"

	racetrack "repro"
	"repro/internal/placement"
)

// minSearchAccesses selects the sequences the GA searches: the 109
// OffsetStone sequences with at least this many accesses.
const minSearchAccesses = 200

// searchWorkload runs the paper's GA through Lab.Place on every
// OffsetStone sequence with at least 200 accesses, at 4 DBCs.
type searchWorkload struct {
	scale float64
	seqs  []*racetrack.Sequence
	names []string
	ga    racetrack.GAConfig
	reg   *placement.Registry
	got   []int64 // shifts of each job's first answer, for verify
}

const searchDBCs = 4

func (w *searchWorkload) setup(ctx context.Context, dir string) error {
	benches, err := offsetStone(0)
	if err != nil {
		return err
	}
	w.seqs, w.names = w.seqs[:0], w.names[:0]
	for _, b := range benches {
		for i, s := range b.Sequences {
			if s.Len() >= minSearchAccesses {
				w.seqs = append(w.seqs, s)
				w.names = append(w.names, fmt.Sprintf("%s/%d", b.Name, i))
			}
		}
	}
	w.ga = racetrack.DefaultGAConfig()
	if w.scale < 1 {
		n := scaledCount(len(w.seqs), w.scale)
		w.seqs, w.names = w.seqs[:n], w.names[:n]
		w.ga.Generations = scaledCount(w.ga.Generations, w.scale)
	}
	if w.reg, err = placement.NewRegistry(); err != nil {
		return err
	}
	w.got = make([]int64, len(w.seqs))
	for i := range w.got {
		w.got[i] = -1
	}
	// Warm-up: two GA jobs.
	for i := 0; i < min(2, len(w.seqs)); i++ {
		if _, err := w.runJob(ctx, w.seqs[i]); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *searchWorkload) options() racetrack.PlaceOptions {
	return racetrack.PlaceOptions{Strategy: racetrack.GA, DBCs: searchDBCs, Workers: 1, Objective: "energy", GA: w.ga}
}

// runJob is `rtmplace -strategy GA` on one sequence: a fresh Lab and
// one Lab.Place call.
func (w *searchWorkload) runJob(ctx context.Context, s *racetrack.Sequence) (*racetrack.PlaceResult, error) {
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return nil, err
	}
	return lab.Place(ctx, s, w.options())
}

func (w *searchWorkload) pass(ctx context.Context, rng *rand.Rand) (*passResult, error) {
	p := &passResult{latMS: make([]float64, 0, len(w.seqs)), counts: make(map[string]float64)}
	per := make([]totals, len(w.seqs))
	for _, i := range rng.Perm(len(w.seqs)) {
		t0 := startJob()
		res, err := w.runJob(ctx, w.seqs[i])
		p.record(t0)
		p.attempted++
		if err == nil && res.Cost == nil {
			err = fmt.Errorf("no priced cost")
		}
		if err != nil {
			p.fail("%s: %v", w.names[i], err)
			continue
		}
		per[i] = totals{Shifts: res.Shifts, EnergyPJ: res.Cost.TotalEnergyPJ(), TimeNS: res.Cost.RuntimeNS}
		p.accesses += int64(w.seqs[i].Len())
		// A fresh Lab builds the kernel once and hits it for attribution.
		p.counts[cntKernelHits]++
		p.counts[cntKernelLookups] += 2
		w.record(p, i, res.Shifts)
	}
	p.totals = sumTotals(per)
	return p, nil
}

// record keeps a job's first answer and flags any later answer that
// differs from it.
func (w *searchWorkload) record(p *passResult, i int, shifts int64) {
	if w.got[i] < 0 {
		w.got[i] = shifts
	} else if w.got[i] != shifts {
		p.fail("%s: GA answered %d shifts, earlier %d", w.names[i], shifts, w.got[i])
	}
}

func (w *searchWorkload) tracedPass(ctx context.Context, rng *rand.Rand, tr *tracer) (*passResult, error) {
	p := &passResult{latMS: make([]float64, 0, len(w.seqs)), counts: make(map[string]float64)}
	per := make([]totals, len(w.seqs))
	for _, i := range rng.Perm(len(w.seqs)) {
		s := w.seqs[i]
		t0 := startJob()
		tr.startJob("search.job")
		err := tr.stage(spanNewLab, func() error {
			_, err := racetrack.New(racetrack.WithWorkers(1))
			return err
		})
		var res []*racetrack.PlaceResult
		if err == nil {
			res, err = replayPlace(ctx, w.reg, tr, p.counts, newKernelSource(racetrack.DefaultKernelCacheSize), []*racetrack.Sequence{s}, w.options())
		}
		tr.end()
		p.record(t0)
		p.attempted++
		if err != nil {
			p.fail("traced %s: %v", w.names[i], err)
			continue
		}
		r := res[0]
		per[i] = totals{Shifts: r.Shifts, EnergyPJ: r.Cost.TotalEnergyPJ(), TimeNS: r.Cost.RuntimeNS}
		p.accesses += int64(s.Len())
		w.record(p, i, r.Shifts)
	}
	p.totals = sumTotals(per)
	return p, nil
}

// verify checks every GA answer against DMA-SR on the same sequence:
// DMA-SR seeds the GA's population, so the GA can never be worse.
func (w *searchWorkload) verify(ctx context.Context) []string {
	var fails []string
	lab, err := racetrack.New(racetrack.WithWorkers(1))
	if err != nil {
		return []string{err.Error()}
	}
	for i, s := range w.seqs {
		if w.got[i] < 0 {
			continue // the job failed and was counted already
		}
		sr, err := lab.Place(ctx, s, racetrack.PlaceOptions{Strategy: racetrack.DMASR, DBCs: searchDBCs, Workers: 1})
		if err != nil {
			fails = append(fails, fmt.Sprintf("%s: DMA-SR reference: %v", w.names[i], err))
			continue
		}
		if w.got[i] > sr.Shifts {
			fails = append(fails, fmt.Sprintf("%s: GA %d shifts is worse than DMA-SR %d", w.names[i], w.got[i], sr.Shifts))
		}
	}
	return fails
}
