// Package eval is the experiment harness: one driver per table and figure
// of the paper's evaluation (section IV). Each driver regenerates the
// corresponding rows/series — per-benchmark normalized shift costs
// (Fig. 4), the energy breakdown (Fig. 5), the DBC-count trade-off
// (Fig. 6), the latency improvements quoted in section IV-C, Table I, the
// abstract's headline aggregates, and the long-GA optimality probe.
//
// Absolute values differ from the paper (the workloads are synthetic, see
// DESIGN.md §3); the drivers exist to reproduce the paper's shape: which
// strategy wins, by roughly what factor, and where the trends cross.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/offsetstone"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config scales the experiments. The zero value is unusable; start from
// Quick() or Full().
type Config struct {
	// DBCCounts lists the RTM configurations (paper: 2, 4, 8, 16).
	DBCCounts []int
	// Benchmarks selects benchmark names; nil means the whole suite.
	Benchmarks []string
	// MaxSequences caps the number of sequences per benchmark (0 = all).
	// Quick runs cap this to bound GA time.
	MaxSequences int
	// MaxSequenceLen skips sequences longer than this (0 = no limit).
	MaxSequenceLen int
	// GA are the genetic-algorithm parameters.
	GA placement.GAConfig
	// RW are the random-walk parameters.
	RW placement.RWConfig
	// Capacity, when positive, enforces per-DBC capacity during
	// placement. The paper's evaluation leaves this off.
	Capacity int
	// Ports is the access-port count per track of the simulated devices
	// and of the cost model every strategy optimizes and is scored
	// under (0 or 1 = the paper's single-port evaluation). The port
	// layout derives from the Table I track length of each DBC count
	// (the iso-capacity device rule), so placement, evaluation and
	// simulation agree on one geometry. PortsSweep ignores this and
	// sweeps its own range.
	Ports int
	// Parallel sizes the engine worker pool shared by the experiment
	// drivers: up to this many (sequence × strategy × DBC-count) cells
	// run concurrently (0 or 1 = sequential). Results are deterministic
	// regardless of the worker count.
	Parallel int
	// Hooks customizes strategy resolution, kernel sourcing and progress
	// reporting for every cell the drivers dispatch. The zero value uses
	// the process-wide registry, per-batch kernels for the strategies
	// that search with one, and no progress.
	// The public session API (racetrack.Lab) threads its instance
	// registry, kernel cache and progress callback through here.
	Hooks engine.Hooks
}

// Full returns the paper's published experiment scale: all benchmarks,
// all sequences, GA with µ = λ = 100 for 200 generations, RW with 60 000
// iterations. This is expensive (hours); use Quick for smoke runs.
func Full() Config {
	return Config{
		DBCCounts: []int{2, 4, 8, 16},
		GA:        placement.DefaultGAConfig(),
		RW:        placement.DefaultRWConfig(),
	}
}

// Quick returns a scaled-down configuration with the same structure: the
// three longest sequences per benchmark (benchmark totals in the paper
// are dominated by the large functions; keeping only small ones would
// distort the trends) and a small GA/RW budget. Trends remain visible;
// absolute ratios are noisier than Full. The caps were raised from
// 2/2500 to cover more of the large sequences that dominate the paper's
// totals; quick-sweep runtime stays bounded by the small GA/RW budgets
// (the six paper strategies replay traces per evaluation — only the
// 2-opt-polished extension strategies use the incremental DeltaEvaluator
// of placement/delta.go).
func Quick() Config {
	return Config{
		DBCCounts:      []int{2, 4, 8, 16},
		MaxSequences:   3,
		MaxSequenceLen: 3000,
		GA: placement.GAConfig{Mu: 24, Lambda: 24, Generations: 30,
			TournamentK: 4, MutationRate: 0.5,
			MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
		RW: placement.RWConfig{Iterations: 720, Seed: 1},
	}
}

// suite materializes the configured benchmarks with the sequence caps
// applied.
func (c Config) suite() ([]*trace.Benchmark, error) {
	names := c.Benchmarks
	if names == nil {
		names = offsetstone.Names()
	}
	out := make([]*trace.Benchmark, 0, len(names))
	for _, n := range names {
		b, err := offsetstone.Generate(n)
		if err != nil {
			return nil, err
		}
		if c.MaxSequenceLen > 0 {
			kept := b.Sequences[:0]
			for _, s := range b.Sequences {
				if s.Len() <= c.MaxSequenceLen {
					kept = append(kept, s)
				}
			}
			b.Sequences = kept
		}
		if c.MaxSequences > 0 && len(b.Sequences) > c.MaxSequences {
			// Keep the longest sequences: benchmark-level costs are
			// dominated by the big functions, and trimming to the small
			// ones would misrepresent the suite.
			sort.SliceStable(b.Sequences, func(i, j int) bool {
				return b.Sequences[i].Len() > b.Sequences[j].Len()
			})
			b.Sequences = b.Sequences[:c.MaxSequences]
		}
		if len(b.Sequences) == 0 {
			continue // nothing small enough survived the caps
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("eval: no benchmarks left after filtering")
	}
	return out, nil
}

// ErrNoDBCCounts reports a Config whose DBCCounts list is empty — the
// drivers that evaluate at one DBC count (ports, headline, convergence,
// tensor, the Fig. 6 base row) have no configuration to run at.
var ErrNoDBCCounts = errors.New("eval: config has no DBC counts")

// firstDBCs returns the first configured DBC count, or a typed error
// when the list is empty or invalid (previously an index panic).
func (c Config) firstDBCs() (int, error) {
	if len(c.DBCCounts) == 0 {
		return 0, ErrNoDBCCounts
	}
	if q := c.DBCCounts[0]; q > 0 {
		return q, nil
	}
	return 0, fmt.Errorf("eval: invalid DBC count %d", c.DBCCounts[0])
}

// options builds placement options from the config. PortDomains stays
// unset: the strategies resolve the layout from the iso-capacity rule
// for their DBC count, which equals the Table I track length the
// device helper below simulates with.
func (c Config) options() placement.Options {
	return placement.Options{Capacity: c.Capacity, GA: c.GA, RW: c.RW, Ports: c.Ports}
}

// device returns the simulated Table I device for q DBCs with the
// configured port count applied to its geometry — the one place the
// sim-based drivers derive devices from, so the simulator replays
// exactly the geometry the placements were optimized against.
func (c Config) device(q int) (sim.Config, error) {
	dev, err := sim.TableIConfig(q)
	if err != nil {
		return sim.Config{}, err
	}
	if c.Ports > 1 {
		dev.Geometry.PortsPerTrack = c.Ports
		if err := dev.Geometry.Validate(); err != nil {
			return sim.Config{}, err
		}
	}
	return dev, nil
}

// workers is the engine worker-pool size implied by Parallel. Every
// driver fans its experiment cells out through internal/engine with this
// count; results are deterministic regardless (see DESIGN.md §4).
func (c Config) workers() int {
	if c.Parallel < 1 {
		return 1
	}
	return c.Parallel
}

// place runs one strategy on one sequence outside the batch layer (the
// probes that place a handful of cells inline), honoring the configured
// resolver hook and bailing out on a cancelled context.
func (c Config) place(ctx context.Context, id placement.StrategyID, s *trace.Sequence, q int, opts placement.Options) (*placement.Placement, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return c.Hooks.Place(id, s, q, opts)
}

// Geomean returns the geometric mean of strictly positive values; zero or
// negative entries are clamped to tiny to stay defined (they indicate a
// degenerate benchmark, not a meaningful ratio).
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			x = 1e-12
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns a/b guarding against a zero denominator (degenerate
// benchmarks whose optimal cost is zero).
func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		b = 1
	}
	return a / b
}
