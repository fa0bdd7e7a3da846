package eval

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/placement"
	"repro/internal/rtm"
)

// Pareto configuration sweep (extension study, DESIGN.md §15): the
// paper fixes one device per experiment, but an architect choosing a
// racetrack configuration trades runtime against energy against area
// across the whole Table I design space. This driver sweeps DBC counts
// × access-port counts × fault rates, re-optimizes the suite's
// placements at every (DBCs, ports) geometry, prices each point with
// the fault-aware CostModel, and reports the Pareto front over
// (runtime, energy, area) with dominated points flagged.
//
// Fault rates share placements within a geometry by construction, not
// by shortcut: the faulty objective is strictly monotone in the shift
// count (costmodel.go), so re-optimizing at every fault rate provably
// returns the same placements — the sweep prices the rate axis instead
// of re-searching it, and the result is bit-identical to per-point
// re-optimization.

// A ParetoPoint is one swept configuration with its suite totals.
type ParetoPoint struct {
	// DBCs, Ports and FaultRate identify the configuration.
	DBCs      int
	Ports     int
	FaultRate float64
	// Shifts, Reads, Writes are the suite's nominal event totals under
	// the placements optimized for this geometry.
	Shifts int64
	Reads  int64
	Writes int64
	// RuntimeNS and EnergyPJ price the totals (fault overhead included);
	// AreaMM2 is the Table I array area. These are the three minimized
	// dimensions.
	RuntimeNS float64
	EnergyPJ  float64
	AreaMM2   float64
	// Dominated is true when some other swept point is no worse in all
	// three dimensions and strictly better in one.
	Dominated bool
}

// ParetoResult is the configuration-sweep dataset. Points are ordered
// by (DBCs, Ports, FaultRate) — the deterministic sweep order.
type ParetoResult struct {
	Points []ParetoPoint
	// Front indexes the non-dominated points, in sweep order.
	Front []int
	// Strategy is the placement strategy every point re-optimized with.
	Strategy placement.StrategyID
}

// Dominates reports whether a dominates b in the minimization sense of
// the sweep's three dimensions: a is no worse in runtime, energy and
// area, and strictly better in at least one. It is irreflexive and
// asymmetric (TestDominatesProperties).
func Dominates(a, b ParetoPoint) bool {
	if a.RuntimeNS > b.RuntimeNS || a.EnergyPJ > b.EnergyPJ || a.AreaMM2 > b.AreaMM2 {
		return false
	}
	return a.RuntimeNS < b.RuntimeNS || a.EnergyPJ < b.EnergyPJ || a.AreaMM2 < b.AreaMM2
}

// MarkPareto flags every dominated point in place and returns the
// indices of the front, in input order. The front is minimal and
// complete: a point is flagged iff some input point dominates it, so no
// front point dominates another front point.
func MarkPareto(points []ParetoPoint) []int {
	front := make([]int, 0, len(points))
	for i := range points {
		points[i].Dominated = false
		for j := range points {
			if i != j && Dominates(points[j], points[i]) {
				points[i].Dominated = true
				break
			}
		}
		if !points[i].Dominated {
			front = append(front, i)
		}
	}
	return front
}

// paretoStrategy is the sweep's re-optimization strategy: DMA-2opt is
// the strongest objective-aware strategy that stays affordable across
// a full configuration grid (the GA would multiply the sweep cost by
// its generation budget).
const paretoStrategy = placement.StrategyDMATwoOpt

// Pareto sweeps cfg.DBCCounts × ports × faultRates, re-optimizing the
// suite per geometry with DMA-2opt and pricing every point under the
// fault-aware cost model. ports defaults to {1, 2} and faultRates to
// {0, 0.01} when empty; DBC counts must have Table I rows (the pricing
// needs the published constants). The result is deterministic for a
// fixed config regardless of Parallel.
func Pareto(ctx context.Context, cfg Config, ports []int, faultRates []float64) (*ParetoResult, error) {
	if len(ports) == 0 {
		ports = []int{1, 2}
	}
	if len(faultRates) == 0 {
		faultRates = []float64{0, 0.01}
	}
	for _, p := range ports {
		if p < 1 {
			return nil, fmt.Errorf("eval: pareto: port count must be >= 1, got %d", p)
		}
	}
	for _, r := range faultRates {
		if _, err := rtm.ExpectedShiftOverhead(r); err != nil {
			return nil, fmt.Errorf("eval: pareto: %w", err)
		}
	}
	if len(cfg.DBCCounts) == 0 {
		return nil, ErrNoDBCCounts
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	res := &ParetoResult{Strategy: paretoStrategy}
	for _, q := range cfg.DBCCounts {
		params, err := energy.ForDBCs(q)
		if err != nil {
			return nil, fmt.Errorf("eval: pareto: %w", err)
		}
		geo, err := rtm.IsoCapacityGeometry(q, 1)
		if err != nil {
			return nil, fmt.Errorf("eval: pareto: %w", err)
		}
		words := geo.WordsPerDBC()
		for _, p := range ports {
			if p > words {
				return nil, fmt.Errorf("eval: pareto: %d ports exceed the %d domains of the %d-DBC device", p, words, q)
			}
			// Re-optimize the suite at this geometry: the strategy
			// searches under the exact multi-port objective when p > 1.
			opts := cfg.options()
			opts.Ports = p
			if p > 1 {
				opts.PortDomains = words
			}
			var jobs []engine.PlaceJob
			for _, b := range suite {
				for _, s := range b.Sequences {
					jobs = append(jobs, engine.PlaceJob{Sequence: s, Strategy: paretoStrategy, DBCs: q, Options: opts})
				}
			}
			placed, err := engine.BatchPlace(ctx, jobs, cfg.workers(), cfg.Hooks)
			if err != nil {
				return nil, fmt.Errorf("eval: pareto %d DBCs %d ports: %w", q, p, err)
			}
			var tally placement.Tally
			i := 0
			for _, b := range suite {
				for _, s := range b.Sequences {
					tally.Add(placement.TallyOf(s, placed[i].Shifts))
					i++
				}
			}
			// Price the fault-rate axis: same placements, same tally —
			// only the correction overhead moves (see the package
			// comment for why this equals per-rate re-optimization).
			for _, rate := range faultRates {
				m, err := placement.NewCostModel(placement.ObjectiveFaulty, params, rate)
				if err != nil {
					return nil, fmt.Errorf("eval: pareto: %w", err)
				}
				c := m.Price(tally)
				res.Points = append(res.Points, ParetoPoint{
					DBCs: q, Ports: p, FaultRate: rate,
					Shifts: c.Shifts, Reads: c.Reads, Writes: c.Writes,
					RuntimeNS: c.RuntimeNS,
					EnergyPJ:  c.TotalEnergyPJ(),
					AreaMM2:   params.AreaMM2,
				})
			}
		}
	}
	res.Front = MarkPareto(res.Points)
	return res, nil
}

// Render prints the sweep with the front marked.
func (r *ParetoResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pareto configuration sweep — %s re-optimized per geometry; minimizing (runtime, energy, area)\n", r.Strategy)
	fmt.Fprintf(&sb, "%6s %6s %8s %14s %16s %16s %10s %7s\n",
		"dbcs", "ports", "fault", "shifts", "runtime_ns", "energy_pj", "area_mm2", "front")
	for _, p := range r.Points {
		mark := "*"
		if p.Dominated {
			mark = ""
		}
		fmt.Fprintf(&sb, "%6d %6d %8.3g %14d %16.1f %16.1f %10.4f %7s\n",
			p.DBCs, p.Ports, p.FaultRate, p.Shifts, p.RuntimeNS, p.EnergyPJ, p.AreaMM2, mark)
	}
	fmt.Fprintf(&sb, "front: %d of %d points non-dominated\n", len(r.Front), len(r.Points))
	return sb.String()
}

// WriteCSV exports the sweep for plotting.
func (r *ParetoResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"dbcs", "ports", "fault_rate", "shifts", "reads", "writes",
		"runtime_ns", "energy_pj", "area_mm2", "dominated"}); err != nil {
		return err
	}
	for _, p := range r.Points {
		rec := []string{
			strconv.Itoa(p.DBCs),
			strconv.Itoa(p.Ports),
			strconv.FormatFloat(p.FaultRate, 'g', -1, 64),
			strconv.FormatInt(p.Shifts, 10),
			strconv.FormatInt(p.Reads, 10),
			strconv.FormatInt(p.Writes, 10),
			formatFloat(p.RuntimeNS),
			formatFloat(p.EnergyPJ),
			formatFloat(p.AreaMM2),
			strconv.FormatBool(p.Dominated),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
