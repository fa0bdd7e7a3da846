package racetrack

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/sim"
)

// An Option configures a Lab under construction (see New). Options are
// applied in order; errors (an invalid device DBC count, a duplicate
// strategy name) are collected and reported joined by New rather than
// panicking — registration failures are construction errors, not
// process-fatal events.
type Option func(*labConfig)

// labConfig accumulates the option settings New assembles a Lab from.
type labConfig struct {
	workers    int
	dbcs       int
	ports      int
	islands    int
	device     sim.Config
	deviceSet  bool
	kernelCap  int
	cost       *placement.CostModel
	progress   func(ProgressEvent)
	strategies []labStrategy
	errs       []error
}

// labStrategy is one WithStrategy registration, applied against the
// Lab's instance registry at construction.
type labStrategy struct {
	name string
	fn   func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error)
}

// WithWorkers sets the Lab's default worker-pool size for benchmark and
// experiment fan-out (individual calls can still override it through
// PlaceOptions.Workers or ExperimentConfig.Parallel). Results are
// deterministic for any worker count; n < 1 is an error. New Labs
// default to runtime.NumCPU().
func WithWorkers(n int) Option {
	return func(c *labConfig) {
		if n < 1 {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithWorkers(%d): worker count must be >= 1", n))
			return
		}
		c.workers = n
	}
}

// WithStrategy registers a custom placement strategy in the Lab's
// instance registry under the given name, exactly like
// Lab.RegisterStrategy but at construction time. Two Labs can register
// different strategies under the same name without interfering — the
// registry is scoped to the instance, not the process. A duplicate name
// within one Lab (or an empty name/nil fn) surfaces as a New error.
func WithStrategy(name string, fn func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error)) Option {
	return func(c *labConfig) {
		c.strategies = append(c.strategies, labStrategy{name: name, fn: fn})
	}
}

// WithDevice selects the Lab's default simulated device: the paper's
// iso-capacity 4 KiB Table I configuration with the given DBC count (2,
// 4, 8 or 16). It also becomes the default DBC count for placements
// (PlaceOptions.DBCs == 0). The default is the 4-DBC device.
func WithDevice(dbcs int) Option {
	return func(c *labConfig) {
		dev, err := sim.TableIConfig(dbcs)
		if err != nil {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithDevice: %w", err))
			return
		}
		c.device = dev
		c.deviceSet = true
		c.dbcs = dbcs
	}
}

// WithPorts sets the access-port count per track of the Lab's device
// (default 1, the paper's evaluation setting). With n > 1 every layer
// follows the device: placements are optimized and scored under the
// exact multi-port cost model (nearest port, evenly spread over the
// device's track length), experiments simulate the multi-port geometry,
// and Simulate replays it — the objective the optimizers see is the one
// the device realizes. n < 1 (or a port count exceeding the device's
// domains per track) is an error.
func WithPorts(n int) Option {
	return func(c *labConfig) {
		if n < 1 {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithPorts(%d): port count must be >= 1", n))
			return
		}
		c.ports = n
	}
}

// WithIslands sets the Lab's default island count for GA-based
// placements: every GA run of this Lab (Place, PlaceBenchmark, the
// experiment drivers) uses the island-model search with n islands
// exchanging elites over a ring, unless the call's GAConfig.Islands
// overrides it. The islands run concurrently on the call's worker
// budget; results are bit-identical for a fixed seed and island count
// regardless of workers. n == 1 selects the serial GA explicitly; n < 1
// is an error.
func WithIslands(n int) Option {
	return func(c *labConfig) {
		if n < 1 {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithIslands(%d): island count must be >= 1", n))
			return
		}
		c.islands = n
	}
}

// WithKernelCache bounds the Lab's content-addressed cost-kernel cache
// to n kernels (evicted least-recently-used). The cache serves the
// strategies that search with a kernel (GA and GA-2opt, islands
// included) and portfolio races: repeating one on the same access
// sequence — same content, not necessarily the same *Sequence pointer —
// reuses the cached kernel instead of building it again. One-shot
// heuristics never build a kernel and leave the cache untouched. n == 0
// disables the cache; n < 0 is an error. The default capacity is 64.
func WithKernelCache(n int) Option {
	return func(c *labConfig) {
		if n < 0 {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithKernelCache(%d): capacity must be >= 0", n))
			return
		}
		c.kernelCap = n
	}
}

// WithCostModel installs the Lab's default cost model: every placement
// result of this Lab (Place, PlacePortfolio, PlaceBenchmark,
// PlaceStream) is priced under it unless the call's
// PlaceOptions.Objective overrides the objective. Pricing is a
// reporting add-on: placements, shift counts and search trajectories
// are bit-identical with or without a model, because every
// constructible objective is strictly monotone in the shift count. A
// nil model is an error (omit the option for the raw shift default).
func WithCostModel(m *CostModel) Option {
	return func(c *labConfig) {
		if m == nil {
			c.errs = append(c.errs, fmt.Errorf("racetrack: WithCostModel(nil): construct a model with NewCostModel"))
			return
		}
		c.cost = m
	}
}

// WithProgress installs a progress callback: the Lab reports every
// experiment cell (sequence × strategy × DBC count) as it starts and
// finishes, with the per-strategy shift cost on completion. The Lab
// serializes invocations, so fn needs no locking of its own; it runs on
// worker goroutines, so it should return quickly. fn must not call back
// into the Lab's placement or experiment methods — events are delivered
// under the Lab's serialization lock, so a reentrant Place/Run would
// deadlock (cancelling a context from fn, as the cancellation tests do,
// is fine).
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *labConfig) { c.progress = fn }
}

// register applies the WithStrategy registrations to the registry,
// returning one error per failed registration.
func (c *labConfig) register(reg *placement.Registry) []error {
	var errs []error
	for _, st := range c.strategies {
		if err := reg.Register(placement.NewStrategy(st.name, st.fn)); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}
