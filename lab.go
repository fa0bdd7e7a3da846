package racetrack

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/placement"
	"repro/internal/pool"
	"repro/internal/sim"
)

// A Lab is a self-contained placement-experiment session: an instance-
// scoped strategy registry (seeded with the paper's six strategies plus
// the DMA-2opt/GA-2opt extensions), a default device and worker-pool
// size, a bounded content-addressed cost-kernel cache, and an optional
// progress callback. Multiple Labs coexist in one process without
// sharing registrations — two tenants can plug different strategies in
// under the same name — and every method takes a context, which cancels
// the remaining experiment cells promptly.
//
// The zero value is not usable; construct Labs with New. A Lab is the
// package's only front door for running strategies by name: every
// by-name call resolves in the Lab's own registry.
type Lab struct {
	registry *placement.Registry
	workers  int
	dbcs     int
	islands  int
	device   DeviceConfig
	cache    *kernelCache
	cost     *placement.CostModel

	progress func(ProgressEvent)
	progMu   sync.Mutex
}

// A ProgressEvent reports one experiment cell (one sequence placed with
// one strategy at one DBC count) as it starts (Done == false) and
// finishes (Done == true, with the shift cost or the error). Cells is
// the batch size; single-sequence calls report one cell.
//
// An island-model GA run additionally reports intermediate events
// between migration rounds: Island >= 0 identifies the island,
// Generation its generation count and Shifts its best cost so far (Done
// stays false — the cell is still running). Every other event carries
// Island == -1.
type ProgressEvent struct {
	// Cell indexes the cell within its batch of Cells.
	Cell, Cells int
	// Sequence is the access sequence being placed.
	Sequence *Sequence
	// Strategy and DBCs identify the work item.
	Strategy Strategy
	DBCs     int
	// Island is the reporting island of an island-model GA progress
	// event, or -1 on regular cell events.
	Island int
	// Generation is the island's generation count on island events.
	Generation int
	// Done distinguishes started (false) from finished (true) events.
	Done bool
	// Shifts is the cell's shift cost, valid when Done && Err == nil
	// (on island events: the island's best cost so far).
	Shifts int64
	// Err is the cell's failure, if any, when Done.
	Err error
}

// New constructs a Lab from the functional options. Option errors — an
// invalid device or worker count, duplicate WithStrategy names — are
// joined into the returned error; a Lab is only returned when every
// option applied cleanly.
func New(opts ...Option) (*Lab, error) {
	cfg := &labConfig{
		workers:   runtime.NumCPU(),
		dbcs:      4,
		kernelCap: DefaultKernelCacheSize,
	}
	for _, opt := range opts {
		opt(cfg)
	}
	registry, err := placement.NewRegistry()
	if err != nil {
		// The builtin seed failed: a construction error, not a panic —
		// nothing else can be meaningfully applied without a registry.
		return nil, fmt.Errorf("racetrack: New: %w", err)
	}
	l := &Lab{
		registry: registry,
		workers:  cfg.workers,
		dbcs:     cfg.dbcs,
		islands:  cfg.islands,
		device:   cfg.device,
		cache:    newKernelCache(cfg.kernelCap),
		cost:     cfg.cost,
		progress: cfg.progress,
	}
	if !cfg.deviceSet {
		dev, err := sim.TableIConfig(cfg.dbcs)
		if err != nil {
			cfg.errs = append(cfg.errs, err)
		} else {
			l.device = dev
		}
	}
	if cfg.ports > 0 {
		l.device.Geometry.PortsPerTrack = cfg.ports
		if err := l.device.Geometry.Validate(); err != nil {
			cfg.errs = append(cfg.errs, fmt.Errorf("racetrack: WithPorts(%d): %w", cfg.ports, err))
		}
	}
	cfg.errs = append(cfg.errs, cfg.register(l.registry)...)
	if err := errors.Join(cfg.errs...); err != nil {
		return nil, fmt.Errorf("racetrack: New: %w", err)
	}
	return l, nil
}

// DefaultKernelCacheSize is the kernel-cache capacity of a Lab built
// without WithKernelCache.
const DefaultKernelCacheSize = 64

// RegisterStrategy plugs a custom placement strategy into this Lab's
// registry under the given name. Once registered, the strategy is
// resolvable by name in every method of this Lab — Place,
// PlaceBenchmark, SimulateBenchmark and the experiment drivers behind
// Run — but in no other Lab. fn must be safe for concurrent use (the
// experiment engine calls it from multiple workers) and deterministic
// for a fixed input if reproducible experiments are desired.
// Registration fails on an empty or already-taken name.
func (l *Lab) RegisterStrategy(name string, fn func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error)) error {
	return l.registry.Register(placement.NewStrategy(name, fn))
}

// RegisteredStrategies lists every strategy resolvable in this Lab: the
// six paper strategies first, then plugged-in strategies (including the
// built-in DMA-2opt and GA-2opt extensions) sorted by name.
func (l *Lab) RegisteredStrategies() []Strategy { return l.registry.Registered() }

// Device returns the Lab's default simulated device (see WithDevice).
func (l *Lab) Device() DeviceConfig { return l.device }

// KernelCacheStats reports the Lab's content-addressed kernel-cache
// counters: hits (a content-equal sequence reused a cached kernel) and
// misses (a kernel was built). Only the calls a kernel serves
// (placement.UsesKernel: the GA family at one port) and portfolio
// races consult the cache, so heuristic-only, random-walk and
// multi-port single-strategy traffic leaves both counters at zero, as
// does a Lab with the cache disabled (WithKernelCache(0)). This is the
// cache's observability hook — a serving front-end exports it as
// warm/cold metrics.
func (l *Lab) KernelCacheStats() (hits, misses int64) {
	if l.cache == nil {
		return 0, 0
	}
	return l.cache.stats()
}

// emit serializes progress delivery; the callback never needs its own
// locking even though cells finish on concurrent workers.
func (l *Lab) emit(ev ProgressEvent) {
	if l.progress == nil {
		return
	}
	l.progMu.Lock()
	l.progress(ev)
	l.progMu.Unlock()
}

// hooks wires this Lab's registry, kernel cache and progress callback
// into the experiment engine's batch layer.
func (l *Lab) hooks() engine.Hooks {
	h := engine.Hooks{Registry: l.registry}
	if l.cache != nil {
		h.Kernel = l.cache.kernel
	}
	if l.progress != nil {
		h.Progress = func(ev engine.Event) {
			l.emit(ProgressEvent{
				Cell: ev.Index, Cells: ev.Total,
				Sequence: ev.Sequence, Strategy: ev.Strategy, DBCs: ev.DBCs,
				Island: -1, Done: ev.Done, Shifts: ev.Shifts, Err: ev.Err,
			})
		}
	}
	return h
}

// withDefaults fills the Lab-level defaults into per-call options: the
// paper's DMA-OFU strategy, the Lab's device DBC count, the Lab's
// worker-pool size and the device's access-port count (the cost model
// follows the device unless the caller pins Ports explicitly).
func (l *Lab) withDefaults(opts PlaceOptions) PlaceOptions {
	if opts.Strategy == "" {
		opts.Strategy = DMAOFU
	}
	if opts.DBCs == 0 {
		opts.DBCs = l.dbcs
	}
	if opts.Workers == 0 {
		opts.Workers = l.workers
	}
	if opts.Ports == 0 {
		opts.Ports = l.device.Geometry.PortsPerTrack
	}
	if opts.GA.Islands == 0 {
		opts.GA.Islands = l.islands
	}
	if opts.GA.Islands > 1 && opts.GA.Workers == 0 {
		// The islands are the GA's parallel axis; give them the call's
		// worker budget (results are worker-count independent).
		opts.GA.Workers = opts.Workers
	}
	return opts
}

// costModelFor resolves the effective cost model for one call: an
// explicit PlaceOptions.Objective wins (its Table I parameters come
// from the call's effective DBC count), then the Lab's WithCostModel
// model, then nil — the raw shift default, which skips pricing
// entirely. opts must already carry the Lab defaults.
func (l *Lab) costModelFor(opts PlaceOptions) (*placement.CostModel, error) {
	if opts.Objective == "" {
		return l.cost, nil
	}
	obj, rate, err := placement.ParseObjective(opts.Objective)
	if err != nil {
		return nil, fmt.Errorf("racetrack: %w", err)
	}
	var params energy.Params
	if obj != placement.ObjectiveShifts {
		if params, err = energy.ForDBCs(opts.DBCs); err != nil {
			return nil, fmt.Errorf("racetrack: objective %q: %w", opts.Objective, err)
		}
	}
	m, err := placement.NewCostModel(obj, params, rate)
	if err != nil {
		return nil, fmt.Errorf("racetrack: %w", err)
	}
	return m, nil
}

// priceResult attaches the cost model's view to a finished result: the
// total tally priced into Cost and one priced entry per DBC. A nil
// model leaves the result unpriced — pricing is strictly a reporting
// add-on, never a behavioral one.
func priceResult(s *Sequence, res *PlaceResult, m *placement.CostModel) error {
	if m == nil {
		return nil
	}
	c := m.Price(placement.TallyOf(s, res.Shifts))
	res.Cost = &c
	tallies, err := placement.PerDBCTallies(s, res.Placement, res.PerDBC)
	if err != nil {
		return fmt.Errorf("racetrack: pricing per-DBC costs: %w", err)
	}
	res.PerDBCCost = make([]Cost, len(tallies))
	for i, t := range tallies {
		res.PerDBCCost[i] = m.Price(t)
	}
	return nil
}

// placeOne runs one strategy on one sequence and attributes the cost per
// DBC, asserting that the strategy's reported cost agrees with the cost
// model (a mismatch means a buggy — typically custom — strategy). A
// strategy that searches with a cost kernel under the call's options
// (placement.UsesKernel) gets one from the kernel cache, when enabled,
// and the attribution reuses it; every other strategy and its
// attribution price by replay, which for one placement is cheaper than
// a kernel build. Costs are bit-identical either way. When the
// effective cost model has more than one port, no kernel is fetched:
// both the strategy and the attribution price the exact multi-port
// replay instead.
func (l *Lab) placeOne(ctx context.Context, s *Sequence, opts PlaceOptions) (*PlaceResult, error) {
	stOpts := opts.options()
	stOpts.Context = ctx
	model, err := l.costModelFor(opts)
	if err != nil {
		return nil, err
	}
	stOpts.Cost = model
	st, ok := l.registry.Lookup(opts.Strategy)
	if !ok {
		return nil, fmt.Errorf("placement: unknown strategy %q", opts.Strategy)
	}
	if l.cache != nil && placement.UsesKernel(st, stOpts) {
		stOpts.Kernel = l.cache.kernel(s)
	}
	if l.progress != nil && stOpts.GA.Islands > 1 && stOpts.GA.IslandProgress == nil {
		stOpts.GA.IslandProgress = func(island, generation int, best int64) {
			l.emit(ProgressEvent{
				Cells: 1, Sequence: s, Strategy: opts.Strategy, DBCs: opts.DBCs,
				Island: island, Generation: generation, Shifts: best,
			})
		}
	}
	p, c, err := st.Place(s, opts.DBCs, stOpts)
	if err != nil {
		// A deadline-bounded search (GA, islands) surfaces its
		// best-so-far placement alongside the context's error
		// (GAContext's contract). Attribute and return it with the
		// error, so service callers whose budget expired get a usable
		// partial result instead of nothing.
		if p == nil || ctx.Err() == nil {
			return nil, err
		}
		b, berr := breakdownFor(s, p, stOpts, opts.DBCs)
		if berr != nil || b.Total != c {
			return nil, err
		}
		res := &PlaceResult{Placement: p, Shifts: b.Total, PerDBC: b.PerDBC}
		if perr := priceResult(s, res, model); perr != nil {
			return nil, err
		}
		return res, err
	}
	b, err := breakdownFor(s, p, stOpts, opts.DBCs)
	if err != nil {
		return nil, err
	}
	if b.Total != c {
		return nil, fmt.Errorf("racetrack: strategy %s reported %d shifts but the cost model attributes %d", opts.Strategy, c, b.Total)
	}
	res := &PlaceResult{Placement: p, Shifts: b.Total, PerDBC: b.PerDBC}
	if err := priceResult(s, res, model); err != nil {
		return nil, err
	}
	return res, nil
}

// Place computes a placement for one access sequence with this Lab's
// registry, defaults and kernel cache. The context aborts the call
// before the placement and interrupts the GA's search loop between
// generations (and between island migration rounds); custom strategies
// may honor it through StrategyOptions.Context.
//
// When the context expires mid-search, Place can return a non-nil
// result TOGETHER WITH the context's error: the search's best-so-far
// placement, with its exact attributed cost. Callers that can use a
// partial result (a placement service answering within a deadline)
// check the result; callers that cannot treat the error as fatal, as
// before.
func (l *Lab) Place(ctx context.Context, s *Sequence, opts PlaceOptions) (*PlaceResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = l.withDefaults(opts)
	l.emit(ProgressEvent{Cells: 1, Sequence: s, Strategy: opts.Strategy, DBCs: opts.DBCs, Island: -1})
	res, err := l.placeOne(ctx, s, opts)
	done := ProgressEvent{Cells: 1, Sequence: s, Strategy: opts.Strategy, DBCs: opts.DBCs, Island: -1, Done: true, Err: err}
	if res != nil {
		done.Shifts = res.Shifts
	}
	l.emit(done)
	return res, err
}

// A PortfolioResult reports a finished strategy race (PlacePortfolio):
// the winning strategy, its placement with the per-DBC cost
// attribution, and every raced strategy's outcome. Winner, Shifts and
// Placement cost are deterministic for a fixed portfolio; an abandoned
// entry's Cost is only a certificate that its true cost exceeds the
// winner's (see StrategyOptions' package documentation of the race).
type PortfolioResult struct {
	// Winner is the first strategy in portfolio order achieving the
	// best exact cost.
	Winner Strategy
	// Placement is the winner's layout.
	Placement *Placement
	// Shifts is the winner's total shift cost; PerDBC attributes it.
	Shifts int64
	PerDBC []int64
	// Cost prices the winner under the call's effective cost model; nil
	// under the raw shift default. The race itself always prunes on the
	// shift incumbent — which by monotonicity is the scalarized bound —
	// so the winner is the scalarized argmin for every objective.
	Cost *Cost
	// Entries holds every strategy's outcome in portfolio order.
	Entries []PortfolioEntry
}

// PlacePortfolio races placement strategies against each other on one
// sequence: all strategies of opts.Portfolio (default: every strategy
// registered in this Lab) run concurrently on opts.Workers goroutines,
// sharing one cost-kernel build, and strategies whose cost provably
// exceeds the running incumbent abandon their pricing early. The winner
// — the best placement any strategy found, ties broken by portfolio
// order — is deterministic regardless of scheduling. Each strategy
// start/finish is reported through the progress callback with the
// strategy's portfolio index as the cell index.
func (l *Lab) PlacePortfolio(ctx context.Context, s *Sequence, opts PlaceOptions) (*PortfolioResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	opts = l.withDefaults(opts)
	stOpts := opts.options()
	model, err := l.costModelFor(opts)
	if err != nil {
		return nil, err
	}
	stOpts.Cost = model
	if l.cache != nil {
		stOpts.Kernel = l.cache.kernel(s)
	}
	pcfg := placement.PortfolioConfig{
		Strategies: opts.Portfolio,
		Registry:   l.registry,
		Workers:    opts.Workers,
		Options:    stOpts,
	}
	if l.progress != nil {
		pcfg.Progress = func(ev placement.PortfolioEvent) {
			l.emit(ProgressEvent{
				Cell: ev.Index, Cells: ev.Total, Sequence: s,
				Strategy: ev.Strategy, DBCs: opts.DBCs, Island: -1,
				Done: ev.Done, Shifts: ev.Cost,
			})
		}
	}
	r, err := placement.RacePortfolio(ctx, s, opts.DBCs, pcfg)
	if err != nil {
		return nil, fmt.Errorf("racetrack: place portfolio: %w", err)
	}
	b, err := breakdownFor(s, r.Placement, stOpts, opts.DBCs)
	if err != nil {
		return nil, err
	}
	if b.Total != r.Cost {
		return nil, fmt.Errorf("racetrack: portfolio winner %s reported %d shifts but the cost model attributes %d", r.Winner, r.Cost, b.Total)
	}
	res := &PortfolioResult{
		Winner: r.Winner, Placement: r.Placement,
		Shifts: r.Cost, PerDBC: b.PerDBC, Entries: r.Entries,
	}
	if model != nil {
		c := model.Price(placement.TallyOf(s, res.Shifts))
		res.Cost = &c
	}
	return res, nil
}

// PlaceBenchmark places every sequence of the benchmark with the
// selected strategy, fanning the sequences out on the experiment engine
// (opts.Workers, defaulting to the Lab's pool size). The results are
// identical for any worker count; cancelling the context aborts the
// remaining sequences promptly and returns the context's error.
func (l *Lab) PlaceBenchmark(ctx context.Context, b *Benchmark, opts PlaceOptions) (*BenchmarkPlaceResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = l.withDefaults(opts)
	stOpts := opts.options()
	model, err := l.costModelFor(opts)
	if err != nil {
		return nil, err
	}
	stOpts.Cost = model
	jobs := make([]engine.PlaceJob, len(b.Sequences))
	for i, s := range b.Sequences {
		jobs[i] = engine.PlaceJob{Sequence: s, Strategy: opts.Strategy, DBCs: opts.DBCs, Options: stOpts}
	}
	out, err := engine.BatchPlace(ctx, jobs, opts.Workers, l.hooks())
	if err != nil {
		return nil, fmt.Errorf("racetrack: place benchmark %s: %w", b.Name, err)
	}
	// Attribute each placement's cost per DBC on the same worker budget:
	// one replay pass per sequence, as the pre-session API also paid.
	results, err := pool.Map(ctx, len(out), opts.Workers, func(_ context.Context, i int) (*PlaceResult, error) {
		o := out[i]
		bd, err := breakdownFor(b.Sequences[i], o.Placement, stOpts, opts.DBCs)
		if err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
		if bd.Total != o.Shifts {
			return nil, fmt.Errorf("sequence %d: strategy %s reported %d shifts but the cost model attributes %d",
				i, opts.Strategy, o.Shifts, bd.Total)
		}
		r := &PlaceResult{Placement: o.Placement, Shifts: o.Shifts, PerDBC: bd.PerDBC}
		if err := priceResult(b.Sequences[i], r, model); err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, fmt.Errorf("racetrack: place benchmark %s: %w", b.Name, err)
	}
	res := &BenchmarkPlaceResult{Benchmark: b, Results: results}
	for _, r := range results {
		res.TotalShifts += r.Shifts
	}
	if model != nil {
		total := &Cost{Objective: model.Objective()}
		for _, r := range results {
			total.Add(*r.Cost)
		}
		res.TotalCost = total
	}
	return res, nil
}

// breakdownFor attributes a placement's cost per DBC under the options'
// effective cost model: the options' kernel when the model is single-port
// and the kernel was built for s, otherwise the replay under the
// options' port model (nil: single port).
func breakdownFor(s *Sequence, p *Placement, stOpts StrategyOptions, q int) (*placement.CostBreakdown, error) {
	pm, err := stOpts.PortModelFor(q)
	if err != nil {
		return nil, err
	}
	if k := stOpts.Kernel; pm == nil && k != nil && k.Sequence() == s {
		return k.Breakdown(p)
	}
	return placement.PortCostBreakdown(s, p, pm)
}

// Simulate replays the sequence with the placement on the Lab's device
// and returns shift/read/write counts, latency and the energy breakdown.
func (l *Lab) Simulate(ctx context.Context, s *Sequence, p *Placement) (SimResult, error) {
	return l.SimulateOn(ctx, l.device, s, p)
}

// SimulateOn is Simulate on an explicit device configuration.
func (l *Lab) SimulateOn(ctx context.Context, dev DeviceConfig, s *Sequence, p *Placement) (SimResult, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return SimResult{}, err
		}
	}
	return sim.RunSequence(dev, s, p)
}

// SimulateBenchmark places (with opts.Strategy, defaulting to DMA-OFU as
// in Place) and replays every sequence of the benchmark on the Lab's
// device, accumulating totals. The cells fan out on the experiment
// engine with opts.Workers workers; totals are bit-identical for any
// worker count.
func (l *Lab) SimulateBenchmark(ctx context.Context, b *Benchmark, opts PlaceOptions) (SimResult, error) {
	return l.SimulateBenchmarkOn(ctx, l.device, b, opts)
}

// SimulateBenchmarkOn is SimulateBenchmark on an explicit device
// configuration (the device's DBC count drives the placements, and its
// port count drives the cost model the placements are optimized under
// unless opts.Ports pins one).
func (l *Lab) SimulateBenchmarkOn(ctx context.Context, dev DeviceConfig, b *Benchmark, opts PlaceOptions) (SimResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Ports == 0 {
		opts.Ports = dev.Geometry.PortsPerTrack
	}
	opts = l.withDefaults(opts)
	stOpts := opts.options()
	if stOpts.Ports > 1 {
		// The strategies must optimize against the explicit device's
		// port layout, not the iso-capacity default — the two differ on
		// custom geometries.
		stOpts.PortDomains = dev.Geometry.WordsPerDBC()
	}
	jobs := make([]engine.SimJob, len(b.Sequences))
	for i, s := range b.Sequences {
		jobs[i] = engine.SimJob{Config: dev, Sequence: s, Strategy: opts.Strategy, Options: stOpts}
	}
	out, err := engine.BatchSimulate(ctx, jobs, opts.Workers, l.hooks())
	if err != nil {
		return SimResult{}, fmt.Errorf("racetrack: simulate benchmark %s: %w", b.Name, err)
	}
	var agg SimResult
	for _, r := range out {
		agg.Add(r)
	}
	return agg, nil
}
