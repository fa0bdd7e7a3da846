package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/placement"
)

// PortfolioStudyRow reports one benchmark's strategy race: every
// sequence is placed by racing the whole portfolio concurrently
// (placement.RacePortfolio), and the row accumulates the winners' shift
// total plus how often each strategy won.
type PortfolioStudyRow struct {
	Benchmark string
	Sequences int
	// Shifts is the benchmark's portfolio total: the winning strategy's
	// cost per sequence, summed. By construction it is the per-sequence
	// minimum over the portfolio — never worse than any single
	// strategy's benchmark total.
	Shifts int64
	// Wins counts race wins per strategy, aligned with the result's
	// Strategies order.
	Wins []int
}

// PortfolioStudyResult is the portfolio-race dataset: the paper runs
// one strategy per experiment cell; this extension study races all of
// them per sequence and reports what a portfolio scheduler would ship.
type PortfolioStudyResult struct {
	Strategies []placement.StrategyID
	Rows       []PortfolioStudyRow
	DBCs       int
	// TotalShifts sums the per-benchmark portfolio totals.
	TotalShifts int64
	// Wins aggregates race wins per strategy over the whole suite.
	Wins []int
	// Raced counts strategy runs over all races; Abandoned counts how
	// many of them the incumbent bound pruned before full pricing.
	Raced, Abandoned int
}

// portfolioStrategies lists the raced strategies in deterministic
// tie-break order: the six paper strategies first, then the two
// extension strategies — the Registered() order of a fresh registry,
// pinned here so the study does not shift when plugins register.
func portfolioStrategies() []placement.StrategyID {
	return append(placement.AllStrategies(),
		placement.StrategyDMATwoOpt, placement.StrategyGAMemetic)
}

// Portfolio races the strategy portfolio on every sequence of the suite
// at the first configured DBC count. Races run one sequence at a time;
// the configured worker budget parallelizes the strategies inside each
// race (the GA/RW cells dominate a race's wall clock, so racing them
// against the heuristics is where the concurrency pays).
func Portfolio(ctx context.Context, cfg Config) (*PortfolioStudyResult, error) {
	q, err := cfg.firstDBCs()
	if err != nil {
		return nil, fmt.Errorf("eval: portfolio: %w", err)
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	ids := portfolioStrategies()
	res := &PortfolioStudyResult{Strategies: ids, DBCs: q, Wins: make([]int, len(ids))}
	winIdx := make(map[placement.StrategyID]int, len(ids))
	for i, id := range ids {
		winIdx[id] = i
	}
	opts := cfg.options()
	for _, b := range suite {
		row := PortfolioStudyRow{Benchmark: b.Name, Sequences: len(b.Sequences), Wins: make([]int, len(ids))}
		for _, s := range b.Sequences {
			r, err := placement.RacePortfolio(ctx, s, q, placement.PortfolioConfig{
				Strategies: ids,
				Registry:   cfg.Hooks.Registry,
				Workers:    cfg.workers(),
				Options:    opts,
			})
			if err != nil {
				return nil, fmt.Errorf("eval: portfolio: %s: %w", b.Name, err)
			}
			row.Shifts += r.Cost
			row.Wins[winIdx[r.Winner]]++
			res.Raced += len(r.Entries)
			for _, e := range r.Entries {
				if e.Abandoned {
					res.Abandoned++
				}
			}
		}
		for i, w := range row.Wins {
			res.Wins[i] += w
		}
		res.TotalShifts += row.Shifts
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the study.
func (r *PortfolioStudyResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Portfolio race — per-sequence winner over %d strategies (%d DBCs)\n", len(r.Strategies), r.DBCs)
	fmt.Fprintf(&sb, "%-14s %5s %12s", "benchmark", "seqs", "shifts")
	for _, id := range r.Strategies {
		fmt.Fprintf(&sb, " %9s", id)
	}
	sb.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-14s %5d %12d", row.Benchmark, row.Sequences, row.Shifts)
		for _, w := range row.Wins {
			fmt.Fprintf(&sb, " %9d", w)
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-14s %5s %12d", "total", "", r.TotalShifts)
	for _, w := range r.Wins {
		fmt.Fprintf(&sb, " %9d", w)
	}
	sb.WriteString("\n")
	if r.Raced > 0 {
		fmt.Fprintf(&sb, "bounded pricing pruned %d of %d strategy runs (%.0f%%)\n",
			r.Abandoned, r.Raced, 100*float64(r.Abandoned)/float64(r.Raced))
	}
	return sb.String()
}
