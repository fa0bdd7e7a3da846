package main

import (
	"context"
	"fmt"

	racetrack "repro"
	"repro/internal/placement"
)

// costModel resolves an objective spec the way Lab does for a call.
func costModel(spec string, dbcs int) (*racetrack.CostModel, error) {
	obj, rate, err := racetrack.ParseObjective(spec)
	if err != nil {
		return nil, err
	}
	params, err := racetrack.EnergyParams(dbcs)
	if err != nil {
		return nil, err
	}
	return racetrack.NewCostModel(obj, params, rate)
}

// kernelSource stands in for the Lab's content-addressed kernel cache
// in a replay: each lookup fingerprints the sequence, and a hit verifies
// the content by rebinding the cached kernel.
type kernelSource struct {
	kernels map[uint64]*placement.CostKernel
	order   []uint64 // least recently used first
	cap     int
}

func newKernelSource(capacity int) *kernelSource {
	return &kernelSource{kernels: make(map[uint64]*placement.CostKernel), cap: capacity}
}

func (ks *kernelSource) kernel(tr *tracer, counts map[string]float64, s *racetrack.Sequence) *placement.CostKernel {
	var fp uint64
	_ = tr.stage(spanFingerprint, func() error { fp = s.Fingerprint(); return nil })
	if cand, ok := ks.kernels[fp]; ok {
		var k *placement.CostKernel
		_ = tr.stage(spanKernelCache, func() error { k = cand.Rebind(s); return nil })
		if k != nil {
			ks.touch(fp)
			return k
		}
	}
	var k *placement.CostKernel
	_ = tr.stage(spanKernelBuild, func() error { k = placement.NewCostKernel(s); return nil })
	counts[cntKernelNNZ] += float64(k.NNZ())
	if _, ok := ks.kernels[fp]; !ok && len(ks.order) == ks.cap {
		delete(ks.kernels, ks.order[0])
		ks.order = ks.order[1:]
	}
	ks.kernels[fp] = k
	ks.touch(fp)
	return k
}

func (ks *kernelSource) touch(fp uint64) {
	for i, x := range ks.order {
		if x == fp {
			ks.order = append(ks.order[:i], ks.order[i+1:]...)
			break
		}
	}
	ks.order = append(ks.order, fp)
}

// replayPlace performs, stage by stage, what Lab.PlaceBenchmark does for
// a fresh Lab (and Lab.Place for one sequence): one kernel per sequence,
// the strategy with the kernel and cost model, then per sequence a
// kernel-cache hit, the per-DBC attribution and the pricing.
func replayPlace(ctx context.Context, reg *placement.Registry, tr *tracer, counts map[string]float64, ks *kernelSource,
	seqs []*racetrack.Sequence, opts racetrack.PlaceOptions) ([]*racetrack.PlaceResult, error) {
	model, err := costModel(opts.Objective, opts.DBCs)
	if err != nil {
		return nil, err
	}
	stOpts := placement.Options{Ports: 1, Cost: model, Context: ctx, GA: opts.GA}
	kernels := make([]*placement.CostKernel, len(seqs))
	for i, s := range seqs {
		kernels[i] = ks.kernel(tr, counts, s)
	}
	results := make([]*racetrack.PlaceResult, len(seqs))
	for i, s := range seqs {
		o := stOpts
		o.Kernel = kernels[i]
		var (
			p *placement.Placement
			c int64
		)
		err := tr.stage(spanPlace+string(opts.Strategy), func() (err error) {
			if opts.Strategy == racetrack.GA {
				p, c, err = replayGA(ctx, reg, s, opts.DBCs, o, counts)
			} else {
				p, c, err = reg.Place(opts.Strategy, s, opts.DBCs, o)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		results[i] = &racetrack.PlaceResult{Placement: p, Shifts: c}
	}
	for i, s := range seqs {
		k := ks.kernel(tr, counts, s)
		r := results[i]
		var bd *placement.CostBreakdown
		if err := tr.stage(spanBreakdown, func() (err error) {
			bd, err = k.Breakdown(r.Placement)
			return err
		}); err != nil {
			return nil, err
		}
		if bd.Total != r.Shifts {
			return nil, fmt.Errorf("sequence %d: strategy reported %d shifts, attribution %d", i, r.Shifts, bd.Total)
		}
		r.PerDBC = bd.PerDBC
		if err := tr.stage(spanPrice, func() error { return price(model, s, r) }); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// price attaches the total and per-DBC priced costs, as Lab does.
func price(m *racetrack.CostModel, s *racetrack.Sequence, r *racetrack.PlaceResult) error {
	c := m.Price(racetrack.TallyOf(s, r.Shifts))
	r.Cost = &c
	tallies, err := placement.PerDBCTallies(s, r.Placement, r.PerDBC)
	if err != nil {
		return err
	}
	r.PerDBCCost = make([]racetrack.Cost, len(tallies))
	for i, t := range tallies {
		r.PerDBCCost[i] = m.Price(t)
	}
	return nil
}

// replayGA is the registry's GA strategy unrolled so the run's
// evaluation count is visible: heuristic seeds, then the search.
func replayGA(ctx context.Context, reg *placement.Registry, s *racetrack.Sequence, q int, opts placement.Options, counts map[string]float64) (*placement.Placement, int64, error) {
	var seeds []*placement.Placement
	for _, id := range placement.HeuristicStrategies() {
		p, _, err := reg.Place(id, s, q, placement.Options{Capacity: opts.Capacity, Kernel: opts.Kernel})
		if err != nil {
			return nil, 0, err
		}
		seeds = append(seeds, p)
	}
	cfg := opts.GA
	cfg.Capacity = opts.Capacity
	cfg.Kernel = opts.Kernel
	cfg.Cost = opts.Cost
	cfg.Seeds = seeds
	res, err := placement.GAContext(ctx, s, q, cfg)
	if err != nil {
		return nil, 0, err
	}
	counts[cntGAEvals] += float64(res.Evaluations)
	return res.Best, res.Cost, nil
}
