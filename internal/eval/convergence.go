package eval

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/placement"
	"repro/internal/trace"
)

// ConvergenceResult records GA best-cost trajectories on one sequence,
// seeded with the heuristics (the paper's configuration) versus
// cold-started — the data behind the paper's section IV-B discussion of
// how far the heuristics sit from the search optimum.
type ConvergenceResult struct {
	Benchmark   string
	SequenceLen int
	// Seeded and Cold are best-cost-after-generation trajectories.
	Seeded []int64
	Cold   []int64
	// HeuristicCost is the best fast-heuristic result, the natural
	// horizontal reference line.
	HeuristicCost int64
}

// Convergence runs the two GA variants on the largest sequence of the
// named benchmark (or of the whole suite when name is empty).
func Convergence(ctx context.Context, cfg Config, name string) (*ConvergenceResult, error) {
	if name != "" {
		cfg.Benchmarks = []string{name}
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	var bench *trace.Benchmark
	var seq *trace.Sequence
	for _, b := range suite {
		for _, s := range b.Sequences {
			if seq == nil || s.Len() > seq.Len() {
				bench, seq = b, s
			}
		}
	}
	if seq == nil {
		return nil, fmt.Errorf("eval: empty suite")
	}
	q, err := cfg.firstDBCs()
	if err != nil {
		return nil, err
	}
	opts := cfg.options()

	res := &ConvergenceResult{Benchmark: bench.Name, SequenceLen: seq.Len()}
	res.HeuristicCost = int64(-1)
	var seeds []*placement.Placement
	for _, id := range placement.HeuristicStrategies() {
		p, c, err := cfg.place(ctx, id, seq, q, opts)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, p)
		if res.HeuristicCost < 0 || c < res.HeuristicCost {
			res.HeuristicCost = c
		}
	}

	// Both GA runs check ctx every generation, so a deadline stops the
	// experiment inside a run, not only between them.
	seeded := cfg.GA
	seeded.Seeds = seeds
	r1, err := placement.GAContext(ctx, seq, q, seeded)
	if err != nil {
		return nil, err
	}
	res.Seeded = r1.History

	cold := cfg.GA
	cold.Seeds = nil
	r2, err := placement.GAContext(ctx, seq, q, cold)
	if err != nil {
		return nil, err
	}
	res.Cold = r2.History
	return res, nil
}

// Render prints the trajectories at a handful of checkpoints.
func (r *ConvergenceResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "GA convergence on %s (largest sequence, %d accesses); best heuristic = %d shifts\n",
		r.Benchmark, r.SequenceLen, r.HeuristicCost)
	fmt.Fprintf(&sb, "%12s %10s %10s\n", "generation", "seeded", "cold")
	n := len(r.Seeded)
	if len(r.Cold) < n {
		n = len(r.Cold)
	}
	if n == 0 {
		return sb.String()
	}
	checkpoints := []int{0, n / 4, n / 2, 3 * n / 4, n - 1}
	last := -1
	for _, c := range checkpoints {
		if c == last {
			continue
		}
		last = c
		fmt.Fprintf(&sb, "%12d %10d %10d\n", c+1, r.Seeded[c], r.Cold[c])
	}
	return sb.String()
}

// WriteCSV emits generation,seeded,cold rows.
func (r *ConvergenceResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "generation,seeded_best,cold_best"); err != nil {
		return err
	}
	n := len(r.Seeded)
	if len(r.Cold) < n {
		n = len(r.Cold)
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%d,%d,%d\n", i+1, r.Seeded[i], r.Cold[i]); err != nil {
			return err
		}
	}
	return nil
}
