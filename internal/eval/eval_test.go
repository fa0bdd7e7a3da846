package eval

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/placement"
)

// testHooks resolves the drivers' strategies in one fresh registry.
var testHooks = func() engine.Hooks {
	reg, err := placement.NewRegistry()
	if err != nil {
		panic(err)
	}
	return engine.Hooks{Registry: reg}
}()

// quickConfig is Quick with the test registry.
func quickConfig() Config {
	c := Quick()
	c.Hooks = testHooks
	return c
}

// tinyConfig is a minimal configuration for fast unit tests: a few small
// benchmarks, short sequences, tiny GA/RW budgets.
func tinyConfig() Config {
	c := quickConfig()
	c.Benchmarks = []string{"anagram", "dspstone", "fuzzy"}
	c.MaxSequences = 2
	c.MaxSequenceLen = 250
	c.GA = placement.GAConfig{Mu: 12, Lambda: 12, Generations: 10,
		TournamentK: 4, MutationRate: 0.5,
		MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1}
	c.RW = placement.RWConfig{Iterations: 120, Seed: 1}
	c.DBCCounts = []int{2, 4}
	return c
}

func TestGeomeanAndMean(t *testing.T) {
	if g := Geomean([]float64{1, 4}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean(1,4) = %v, want 2", g)
	}
	if g := Geomean([]float64{2, 2, 2}); math.Abs(g-2) > 1e-9 {
		t.Errorf("geomean(2,2,2) = %v", g)
	}
	if !math.IsNaN(Geomean(nil)) {
		t.Error("geomean(nil) should be NaN")
	}
	if m := Mean([]float64{1, 2, 3}); math.Abs(m-2) > 1e-9 {
		t.Errorf("mean = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean(nil) should be NaN")
	}
}

func TestRatioGuards(t *testing.T) {
	if r := ratio(0, 0); r != 1 {
		t.Errorf("ratio(0,0) = %v, want 1", r)
	}
	if r := ratio(5, 0); r != 5 {
		t.Errorf("ratio(5,0) = %v, want 5", r)
	}
	if r := ratio(6, 3); r != 2 {
		t.Errorf("ratio(6,3) = %v, want 2", r)
	}
}

func TestSuiteFiltering(t *testing.T) {
	c := tinyConfig()
	suite, err := c.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	for _, b := range suite {
		if len(b.Sequences) > c.MaxSequences {
			t.Errorf("%s kept %d sequences, cap %d", b.Name, len(b.Sequences), c.MaxSequences)
		}
		for _, s := range b.Sequences {
			if s.Len() > c.MaxSequenceLen {
				t.Errorf("%s kept sequence of length %d, cap %d", b.Name, s.Len(), c.MaxSequenceLen)
			}
		}
	}
	bad := Config{Benchmarks: []string{"nope"}}
	if _, err := bad.suite(); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestFig4TinyRun(t *testing.T) {
	res, err := Fig4(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3*2 {
		t.Fatalf("rows = %d, want 6 (3 benchmarks x 2 DBC counts)", len(res.Rows))
	}
	for _, row := range res.Rows {
		// GA normalizes to exactly 1 against itself.
		if math.Abs(row.Normalized[placement.StrategyGA]-1) > 1e-9 {
			t.Errorf("%s q=%d: GA normalized = %v", row.Benchmark, row.DBCs, row.Normalized[placement.StrategyGA])
		}
		for id, n := range row.Normalized {
			if n < 0 || math.IsNaN(n) {
				t.Errorf("%s q=%d %s: bad normalized %v", row.Benchmark, row.DBCs, id, n)
			}
		}
	}
	// The paper's central claim, at any scale: DMA beats AFD on average.
	for q, g := range res.AFDOverDMA {
		if g <= 1.0 {
			t.Errorf("q=%d: AFD-OFU/DMA-OFU geomean = %.3f, want > 1 (DMA must win)", q, g)
		}
	}
	// Render must mention every benchmark and strategy.
	text := res.Render()
	for _, want := range []string{"anagram", "dspstone", "fuzzy", "AFD-OFU", "geomean"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestFig5TinyRun(t *testing.T) {
	res, err := Fig5(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{2, 4} {
		base, ok := res.Cell(placement.StrategyAFDOFU, q)
		if !ok {
			t.Fatalf("missing AFD-OFU cell for q=%d", q)
		}
		// AFD-OFU normalizes to 1.
		total := base.Leakage + base.ReadWrite + base.Shift
		if math.Abs(total-1) > 1e-9 {
			t.Errorf("q=%d: AFD-OFU normalized total = %v, want 1", q, total)
		}
		// DMA variants must save energy.
		for _, id := range []placement.StrategyID{placement.StrategyDMAOFU, placement.StrategyDMASR} {
			c, ok := res.Cell(id, q)
			if !ok {
				t.Fatalf("missing %s cell", id)
			}
			if got := c.Leakage + c.ReadWrite + c.Shift; got >= 1 {
				t.Errorf("q=%d %s: normalized energy %v, want < 1", q, id, got)
			}
			if res.EnergySavings[id][q] <= 0 {
				t.Errorf("q=%d %s: no energy saving", q, id)
			}
		}
	}
	if !strings.Contains(res.Render(), "Energy savings") {
		t.Error("render missing savings block")
	}
}

func TestLatencyTinyRun(t *testing.T) {
	res, err := Latency(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range LatencyStrategies() {
		for q, imp := range res.Improvement[id] {
			if imp <= 0 || imp >= 1 {
				t.Errorf("%s q=%d: latency improvement %.3f outside (0,1)", id, q, imp)
			}
		}
	}
	if !strings.Contains(res.Render(), "latency improvement") {
		t.Error("render missing header")
	}
}

func TestFig6TinyRun(t *testing.T) {
	cfg := tinyConfig()
	cfg.DBCCounts = []int{2, 4, 8, 16}
	res, err := Fig6(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Area improvement must fall monotonically (ports cost area).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].AreaImprovement >= res.Rows[i-1].AreaImprovement {
			t.Errorf("area improvement should fall: %v then %v",
				res.Rows[i-1].AreaImprovement, res.Rows[i].AreaImprovement)
		}
	}
	// Shift improvement at the smallest DBC count must exceed the largest
	// count's (the paper's diminishing-returns trend).
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.ShiftImprovement <= last.ShiftImprovement {
		t.Errorf("shift improvement should diminish with DBC count: %v -> %v",
			first.ShiftImprovement, last.ShiftImprovement)
	}
	if !strings.Contains(res.Render(), "Fig. 6") {
		t.Error("render missing header")
	}
}

func TestTable1Render(t *testing.T) {
	text := Table1Render()
	for _, want := range []string{"Number of DBCs", "512", "3.39", "0.0279", "Shift latency"} {
		if !strings.Contains(text, want) {
			t.Errorf("Table I render missing %q", want)
		}
	}
}

func TestHeadlineTinyRun(t *testing.T) {
	res, err := Headline(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ShiftImprovement <= 1 {
		t.Errorf("shift improvement %.2f, want > 1", res.ShiftImprovement)
	}
	if res.LatencyReduction <= 0 || res.EnergyReduction <= 0 {
		t.Errorf("savings should be positive: lat=%v energy=%v",
			res.LatencyReduction, res.EnergyReduction)
	}
	if !strings.Contains(res.Render(), "paper: 4.3x") {
		t.Error("render missing paper reference")
	}
}

func TestLongGATinyRun(t *testing.T) {
	cfg := tinyConfig()
	res, err := LongGA(context.Background(), cfg, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.GACost < 0 || res.HeuristicCost < 0 {
		t.Error("negative costs")
	}
	if res.SequenceLen == 0 {
		t.Error("did not pick a sequence")
	}
	if !strings.Contains(res.Render(), res.Benchmark) {
		t.Error("render missing benchmark name")
	}
}

func TestConvergence(t *testing.T) {
	cfg := tinyConfig()
	res, err := Convergence(context.Background(), cfg, "dspstone")
	if err != nil {
		t.Fatal(err)
	}
	if res.Benchmark != "dspstone" {
		t.Errorf("benchmark = %s", res.Benchmark)
	}
	if len(res.Seeded) != cfg.GA.Generations || len(res.Cold) != cfg.GA.Generations {
		t.Fatalf("trajectory lengths %d/%d, want %d", len(res.Seeded), len(res.Cold), cfg.GA.Generations)
	}
	// The seeded GA starts from the heuristics, so its best can never be
	// worse than the best heuristic at any generation.
	for i, c := range res.Seeded {
		if c > res.HeuristicCost {
			t.Fatalf("seeded GA above its own seed at generation %d: %d > %d", i, c, res.HeuristicCost)
		}
	}
	// Trajectories are monotone non-increasing.
	for i := 1; i < len(res.Cold); i++ {
		if res.Cold[i] > res.Cold[i-1] || res.Seeded[i] > res.Seeded[i-1] {
			t.Fatal("non-monotone trajectory")
		}
	}
	if !strings.Contains(res.Render(), "GA convergence") {
		t.Error("render missing header")
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(sb.String(), "\n"); n != cfg.GA.Generations+1 {
		t.Errorf("csv rows = %d", n)
	}
	if _, err := Convergence(context.Background(), cfg, "nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// A convergence run must stop inside its GA runs once its context
// expires, not only between them: with a practically endless generation
// budget, only the per-generation check can end it.
func TestConvergenceHonorsDeadline(t *testing.T) {
	cfg := tinyConfig()
	cfg.GA.Generations = 1 << 30
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := Convergence(ctx, cfg, "dspstone")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("convergence returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("convergence still running 5s after its 50ms deadline")
	}
}

// Parallel evaluation must produce byte-identical results to sequential.
func TestFig4ParallelDeterministic(t *testing.T) {
	seq := tinyConfig()
	par := tinyConfig()
	par.Parallel = 4
	r1, err := Fig4(context.Background(), seq)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fig4(context.Background(), par)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		a, b := r1.Rows[i], r2.Rows[i]
		if a.Benchmark != b.Benchmark || a.DBCs != b.DBCs {
			t.Fatalf("row %d order differs: %s/%d vs %s/%d", i, a.Benchmark, a.DBCs, b.Benchmark, b.DBCs)
		}
		for id, v := range a.Shifts {
			if b.Shifts[id] != v {
				t.Fatalf("row %d %s: %d vs %d", i, id, v, b.Shifts[id])
			}
		}
	}
	for q, g := range r1.Geomean {
		for id, v := range g {
			if r2.Geomean[q][id] != v {
				t.Fatalf("geomean %d/%s differs", q, id)
			}
		}
	}
}

func TestTensorExperiment(t *testing.T) {
	res, err := Tensor(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	wins := 0
	for _, row := range res.Rows {
		if row.AFDOFU < 0 || row.DMASR < 0 {
			t.Fatalf("negative costs: %+v", row)
		}
		if row.Improved >= 1 {
			wins++
		}
	}
	if wins*2 < len(res.Rows) {
		t.Errorf("DMA-SR won only %d/%d contractions", wins, len(res.Rows))
	}
	if !strings.Contains(res.Render(), "Tensor contractions") {
		t.Error("render missing header")
	}
}
