package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simGrid fans one simulation cell per (DBC count × benchmark × strategy
// × sequence) out through the engine and returns the totals accumulated
// per (DBC-count, benchmark, strategy) — indexed
// (qi*len(suite)+bi)*len(strategies)+si — in deterministic input order.
// It is the shared core of the Fig. 5, Fig. 6, latency and headline
// drivers; per-sequence results fold into per-benchmark subtotals in
// sequence order, matching the aggregation of the pre-engine drivers
// bit-for-bit.
func simGrid(ctx context.Context, cfg Config, suite []*trace.Benchmark, strategies []placement.StrategyID) ([]sim.Result, error) {
	opts := cfg.options()
	type cellKey struct{ qi, bi, si int }
	var jobs []engine.SimJob
	var cells []cellKey
	for qi, q := range cfg.DBCCounts {
		simCfg, err := cfg.device(q)
		if err != nil {
			return nil, err
		}
		for bi, b := range suite {
			for si := range strategies {
				for _, s := range b.Sequences {
					jobs = append(jobs, engine.SimJob{Config: simCfg, Sequence: s, Strategy: strategies[si], Options: opts})
					cells = append(cells, cellKey{qi: qi, bi: bi, si: si})
				}
			}
		}
	}
	out, err := engine.BatchSimulate(ctx, jobs, cfg.workers(), cfg.Hooks)
	if err != nil {
		return nil, err
	}
	totals := make([]sim.Result, len(cfg.DBCCounts)*len(suite)*len(strategies))
	for i, r := range out {
		c := cells[i]
		totals[(c.qi*len(suite)+c.bi)*len(strategies)+c.si].Add(r)
	}
	return totals, nil
}

// gridTotal sums one strategy's per-benchmark grid entries for one DBC
// count in suite order (the same benchmark-subtotal-then-suite order the
// pre-engine drivers used, preserving float bit-identity).
func gridTotal(grid []sim.Result, nb, ns, qi, si int) sim.Result {
	var agg sim.Result
	for bi := 0; bi < nb; bi++ {
		agg.Add(grid[(qi*nb+bi)*ns+si])
	}
	return agg
}

// EnergyStrategies are the three strategies the paper's Fig. 5 compares.
func EnergyStrategies() []placement.StrategyID {
	return []placement.StrategyID{
		placement.StrategyAFDOFU,
		placement.StrategyDMAOFU,
		placement.StrategyDMASR,
	}
}

// Fig5Cell is the energy breakdown of one strategy at one DBC count,
// summed over the whole suite and normalized to the AFD-OFU total at the
// same DBC count (AFD-OFU == 1.0), as plotted in Fig. 5.
type Fig5Cell struct {
	Strategy placement.StrategyID
	DBCs     int
	// Leakage, ReadWrite, Shift are the normalized components; their sum
	// is the normalized total energy.
	Leakage, ReadWrite, Shift float64
	// TotalPJ is the absolute total for reference.
	TotalPJ float64
	// LatencyNS is the absolute runtime (used by the section IV-C
	// latency numbers, which share this experiment's raw data).
	LatencyNS float64
	// Shifts is the absolute shift count.
	Shifts int64
}

// Fig5Result is the Fig. 5 dataset plus the savings the paper quotes:
// energy reduction of DMA-OFU and DMA-SR relative to AFD-OFU per DBC count
// (paper: 61/62/44/13 % and 77/70/50/21 %).
type Fig5Result struct {
	Cells []Fig5Cell
	// EnergySavings maps strategy -> DBC count -> fractional energy
	// saving vs AFD-OFU (0.61 means 61 % less energy).
	EnergySavings map[placement.StrategyID]map[int]float64
}

// Fig5 regenerates the energy-breakdown experiment by simulating the suite
// under each strategy and Table I configuration, one engine cell per
// sequence.
func Fig5(ctx context.Context, cfg Config) (*Fig5Result, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	strategies := EnergyStrategies()
	grid, err := simGrid(ctx, cfg, suite, strategies)
	if err != nil {
		return nil, fmt.Errorf("eval: fig5: %w", err)
	}

	res := &Fig5Result{EnergySavings: map[placement.StrategyID]map[int]float64{}}
	for qi, q := range cfg.DBCCounts {
		totals := map[placement.StrategyID]sim.Result{}
		for si, id := range strategies {
			totals[id] = gridTotal(grid, len(suite), len(strategies), qi, si)
		}
		base := totals[placement.StrategyAFDOFU].Energy.TotalPJ()
		for _, id := range strategies {
			t := totals[id]
			res.Cells = append(res.Cells, Fig5Cell{
				Strategy:  id,
				DBCs:      q,
				Leakage:   ratio(t.Energy.LeakagePJ, base),
				ReadWrite: ratio(t.Energy.ReadWritePJ, base),
				Shift:     ratio(t.Energy.ShiftPJ, base),
				TotalPJ:   t.Energy.TotalPJ(),
				LatencyNS: t.LatencyNS,
				Shifts:    t.Counts.Shifts,
			})
			if id != placement.StrategyAFDOFU {
				if res.EnergySavings[id] == nil {
					res.EnergySavings[id] = map[int]float64{}
				}
				res.EnergySavings[id][q] = 1 - ratio(t.Energy.TotalPJ(), base)
			}
		}
	}
	return res, nil
}

// Cell returns the cell for a strategy and DBC count.
func (r *Fig5Result) Cell(id placement.StrategyID, dbcs int) (Fig5Cell, bool) {
	for _, c := range r.Cells {
		if c.Strategy == id && c.DBCs == dbcs {
			return c, true
		}
	}
	return Fig5Cell{}, false
}

// Render prints the Fig. 5 stacked-bar data as text.
func (r *Fig5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Fig. 5 — energy breakdown normalized to AFD-OFU per DBC count\n")
	fmt.Fprintf(&sb, "%6s %-8s %9s %9s %9s %9s\n", "DBCs", "strategy", "leakage", "rd/wr", "shift", "total")
	for _, c := range r.Cells {
		fmt.Fprintf(&sb, "%6d %-8s %9.3f %9.3f %9.3f %9.3f\n",
			c.DBCs, c.Strategy, c.Leakage, c.ReadWrite, c.Shift,
			c.Leakage+c.ReadWrite+c.Shift)
	}
	sb.WriteString("\nEnergy savings vs AFD-OFU:\n")
	for _, id := range []placement.StrategyID{placement.StrategyDMAOFU, placement.StrategyDMASR} {
		fmt.Fprintf(&sb, "  %-8s", id)
		for _, q := range sortedKeys(r.EnergySavings[id]) {
			fmt.Fprintf(&sb, "  %d-DBC: %5.1f%%", q, 100*r.EnergySavings[id][q])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// LatencyResult carries the section IV-C latency-improvement numbers:
// fractional access-latency reduction vs AFD-OFU per strategy and DBC
// count (paper: DMA-OFU 50.3/50.5/33.1/10.4 %, DMA-Chen 68.1/60.1/36.5/
// 13.4 %, DMA-SR 70.1/62/37.7/14.6 %).
type LatencyResult struct {
	// Improvement maps strategy -> DBC count -> fractional latency
	// reduction vs AFD-OFU.
	Improvement map[placement.StrategyID]map[int]float64
}

// LatencyStrategies are the strategies section IV-C quotes.
func LatencyStrategies() []placement.StrategyID {
	return []placement.StrategyID{
		placement.StrategyDMAOFU,
		placement.StrategyDMAChen,
		placement.StrategyDMASR,
	}
}

// Latency regenerates the section IV-C latency comparison through the
// same engine grid as Fig. 5.
func Latency(ctx context.Context, cfg Config) (*LatencyResult, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	all := append([]placement.StrategyID{placement.StrategyAFDOFU}, LatencyStrategies()...)
	grid, err := simGrid(ctx, cfg, suite, all)
	if err != nil {
		return nil, fmt.Errorf("eval: latency: %w", err)
	}
	res := &LatencyResult{Improvement: map[placement.StrategyID]map[int]float64{}}
	for qi, q := range cfg.DBCCounts {
		lat := map[placement.StrategyID]float64{}
		for si, id := range all {
			lat[id] = gridTotal(grid, len(suite), len(all), qi, si).LatencyNS
		}
		for _, id := range LatencyStrategies() {
			if res.Improvement[id] == nil {
				res.Improvement[id] = map[int]float64{}
			}
			res.Improvement[id][q] = 1 - ratio(lat[id], lat[placement.StrategyAFDOFU])
		}
	}
	return res, nil
}

// Render prints the latency improvements.
func (r *LatencyResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Section IV-C — RTM access latency improvement vs AFD-OFU\n")
	for _, id := range LatencyStrategies() {
		fmt.Fprintf(&sb, "  %-9s", id)
		for _, q := range sortedKeys(r.Improvement[id]) {
			fmt.Fprintf(&sb, "  %d-DBC: %5.1f%%", q, 100*r.Improvement[id][q])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
