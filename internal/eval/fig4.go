package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/placement"
)

// Fig4Row is one benchmark's shift totals for every strategy at one DBC
// count, normalized to the GA result (GA == 1), exactly as plotted in the
// paper's Fig. 4.
type Fig4Row struct {
	Benchmark string
	DBCs      int
	// Shifts maps strategy -> total shifts across the benchmark's
	// sequences.
	Shifts map[placement.StrategyID]int64
	// Normalized maps strategy -> shifts / GA shifts.
	Normalized map[placement.StrategyID]float64
}

// Fig4Result is the full Fig. 4 dataset plus the geometric means the
// paper quotes in section IV-B.
type Fig4Result struct {
	Rows []Fig4Row
	// Geomean maps DBC count -> strategy -> geometric mean of the
	// normalized cost over all benchmarks.
	Geomean map[int]map[placement.StrategyID]float64
	// AFDOverDMA maps DBC count -> geomean of AFD-OFU/DMA-OFU shift
	// ratios (the paper reports 2.4x, 2.9x, 2.8x, 1.7x for 2/4/8/16).
	AFDOverDMA map[int]float64
	// DMAOverChen and DMAOverSR report the additional factor the intra
	// heuristics contribute on top of DMA-OFU (paper: 1.8x/1.6x/1.3x/1.4x
	// and 2.0x/1.8x/1.5x/1.6x).
	DMAOverChen map[int]float64
	DMAOverSR   map[int]float64
}

// Fig4 regenerates the Fig. 4 experiment: all six strategies on every
// benchmark for every configured DBC count. The context cancels the
// remaining cells.
func Fig4(ctx context.Context, cfg Config) (*Fig4Result, error) {
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	opts := cfg.options()

	// One placement job per (DBC count × benchmark × strategy × sequence)
	// cell, submitted to the shared engine as a single batch; the cell
	// index array maps outcomes back to their aggregation row.
	type cellKey struct {
		qi, bi int
		id     placement.StrategyID
	}
	var jobs []engine.PlaceJob
	var cells []cellKey
	for qi, q := range cfg.DBCCounts {
		for bi, b := range suite {
			for _, id := range placement.AllStrategies() {
				for _, s := range b.Sequences {
					jobs = append(jobs, engine.PlaceJob{Sequence: s, Strategy: id, DBCs: q, Options: opts})
					cells = append(cells, cellKey{qi: qi, bi: bi, id: id})
				}
			}
		}
	}
	out, err := engine.BatchPlace(ctx, jobs, cfg.workers(), cfg.Hooks)
	if err != nil {
		return nil, fmt.Errorf("eval: fig4: %w", err)
	}

	// Aggregate sequence cells into per-benchmark rows in input order.
	rows := make([]map[placement.StrategyID]int64, len(cfg.DBCCounts)*len(suite))
	for i := range rows {
		rows[i] = map[placement.StrategyID]int64{}
	}
	for i, o := range out {
		c := cells[i]
		rows[c.qi*len(suite)+c.bi][c.id] += o.Shifts
	}

	res := &Fig4Result{
		Geomean:     map[int]map[placement.StrategyID]float64{},
		AFDOverDMA:  map[int]float64{},
		DMAOverChen: map[int]float64{},
		DMAOverSR:   map[int]float64{},
	}
	for qi, q := range cfg.DBCCounts {
		perStrategy := map[placement.StrategyID][]float64{}
		var afdOverDMA, dmaOverChen, dmaOverSR []float64
		for bi, b := range suite {
			shifts := rows[qi*len(suite)+bi]
			row := Fig4Row{
				Benchmark:  b.Name,
				DBCs:       q,
				Shifts:     shifts,
				Normalized: map[placement.StrategyID]float64{},
			}
			ga := shifts[placement.StrategyGA]
			for _, id := range placement.AllStrategies() {
				row.Normalized[id] = ratio(float64(shifts[id]), float64(ga))
				perStrategy[id] = append(perStrategy[id], row.Normalized[id])
			}
			afdOverDMA = append(afdOverDMA,
				ratio(float64(shifts[placement.StrategyAFDOFU]), float64(shifts[placement.StrategyDMAOFU])))
			dmaOverChen = append(dmaOverChen,
				ratio(float64(shifts[placement.StrategyDMAOFU]), float64(shifts[placement.StrategyDMAChen])))
			dmaOverSR = append(dmaOverSR,
				ratio(float64(shifts[placement.StrategyDMAOFU]), float64(shifts[placement.StrategyDMASR])))
			res.Rows = append(res.Rows, row)
		}
		res.Geomean[q] = map[placement.StrategyID]float64{}
		for id, norm := range perStrategy {
			res.Geomean[q][id] = Geomean(norm)
		}
		res.AFDOverDMA[q] = Geomean(afdOverDMA)
		res.DMAOverChen[q] = Geomean(dmaOverChen)
		res.DMAOverSR[q] = Geomean(dmaOverSR)
	}
	return res, nil
}

// Render prints the Fig. 4 dataset as an aligned text table, one block per
// DBC count, mirroring the paper's per-benchmark bars plus the geomean
// row.
func (r *Fig4Result) Render() string {
	var sb strings.Builder
	order := placement.AllStrategies()
	dbcs := sortedKeys(r.Geomean)
	for _, q := range dbcs {
		fmt.Fprintf(&sb, "Fig. 4 — shift cost normalized to GA, %d DBCs\n", q)
		fmt.Fprintf(&sb, "%-10s", "benchmark")
		for _, id := range order {
			fmt.Fprintf(&sb, " %10s", id)
		}
		sb.WriteByte('\n')
		for _, row := range r.Rows {
			if row.DBCs != q {
				continue
			}
			fmt.Fprintf(&sb, "%-10s", row.Benchmark)
			for _, id := range order {
				fmt.Fprintf(&sb, " %10.2f", row.Normalized[id])
			}
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%-10s", "geomean")
		for _, id := range order {
			fmt.Fprintf(&sb, " %10.2f", r.Geomean[q][id])
		}
		fmt.Fprintf(&sb, "\n  AFD-OFU/DMA-OFU = %.2fx   DMA-OFU/DMA-Chen = %.2fx   DMA-OFU/DMA-SR = %.2fx\n\n",
			r.AFDOverDMA[q], r.DMAOverChen[q], r.DMAOverSR[q])
	}
	return sb.String()
}

func sortedKeys[V any](m map[int]V) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
