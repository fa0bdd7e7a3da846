package racetrack

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// --- Construction ----------------------------------------------------

func TestNewOptionErrors(t *testing.T) {
	dummy := func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error) {
		return &Placement{DBC: make([][]int, q)}, 0, nil
	}
	// Double registration of the same name in one Lab is a construction
	// error, reported joined — not a panic (the legacy extension
	// registration used to panic in init()).
	_, err := New(WithStrategy("dup", dummy), WithStrategy("dup", dummy))
	if err == nil {
		t.Fatal("double WithStrategy registration accepted")
	}
	if !strings.Contains(err.Error(), "dup") {
		t.Errorf("error does not name the duplicate: %v", err)
	}
	// Multiple independent option errors are all reported.
	_, err = New(WithWorkers(0), WithDevice(3), WithKernelCache(-1))
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	for _, want := range []string{"WithWorkers", "DBC", "WithKernelCache"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error missing %q: %v", want, err)
		}
	}
	// Shadowing a builtin name is likewise a construction error.
	if _, err := New(WithStrategy(string(DMASR), dummy)); err == nil {
		t.Fatal("shadowing a builtin accepted")
	}
}

func TestNewDefaults(t *testing.T) {
	lab, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if got := lab.Device().Geometry.DBCs(); got != 4 {
		t.Errorf("default device DBCs = %d, want 4", got)
	}
	ids := lab.RegisteredStrategies()
	joined := ""
	for _, id := range ids {
		joined += string(id) + " "
	}
	for _, want := range []string{"AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "GA", "RW", "DMA-2opt", "GA-2opt"} {
		if !strings.Contains(joined, want) {
			t.Errorf("fresh Lab missing builtin %s (have %s)", want, joined)
		}
	}
}

func TestWithDeviceSelectsDBCDefault(t *testing.T) {
	lab, err := New(WithDevice(8))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := ParseSequence("a b a b c c d d e e f f g g h h i i")
	res, err := lab.Place(context.Background(), s, PlaceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.NumDBCs() != 8 {
		t.Errorf("placement used %d DBCs, want the device's 8", res.Placement.NumDBCs())
	}
}

// --- Determinism across Labs -----------------------------------------

// compatBenchmark is the mixed workload of the Lab tests below.
func compatBenchmark(t *testing.T) *Benchmark {
	t.Helper()
	b, err := GenerateBenchmark("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCompatExperiment: Lab.Run produces the same dataset as the same
// driver run at the same scale through a second Lab — the experiment
// path is deterministic and Lab-scoped state does not leak into results.
func TestCompatExperiment(t *testing.T) {
	cfg := QuickConfig()
	cfg.Benchmarks = []string{"anagram", "fuzzy"}
	cfg.MaxSequences = 2
	cfg.MaxSequenceLen = 250
	cfg.DBCCounts = []int{2, 4}
	cfg.GA = GAConfig{Mu: 10, Lambda: 10, Generations: 6, TournamentK: 4,
		MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1}
	cfg.RW = RWConfig{Iterations: 80, Seed: 1}

	lab1, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	lab8, err := New(WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	r1, err := lab1.Run(context.Background(), ExperimentSpec{Experiment: ExperimentFig4, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	r8, err := lab8.Run(context.Background(), ExperimentSpec{Experiment: ExperimentFig4, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Render() != r8.Render() {
		t.Error("Fig4 datasets differ across Labs/worker counts")
	}
	if len(r1.Fig4.Rows) != 2*2 {
		t.Errorf("rows = %d, want 4", len(r1.Fig4.Rows))
	}
	// Unknown experiment is a typed error.
	if _, err := lab1.Run(context.Background(), ExperimentSpec{Experiment: "nope"}); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Table 1 renders without running cells.
	tr, err := lab1.Run(context.Background(), ExperimentSpec{Experiment: ExperimentTable1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tr.Render(), "Number of DBCs") {
		t.Error("Table1 render missing header")
	}
}

// TestExperimentConfigPartialMerge: a partial ExperimentConfig keeps
// every field the caller set; only the knobs with no usable zero value
// (DBC counts, GA/RW budgets) are filled from QuickConfig.
func TestExperimentConfigPartialMerge(t *testing.T) {
	lab, err := New(WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ExperimentConfig{ // no DBCCounts: filled from QuickConfig
		Benchmarks:     []string{"anagram"},
		MaxSequences:   1,
		MaxSequenceLen: 250,
		GA: GAConfig{Mu: 8, Lambda: 8, Generations: 7, TournamentK: 4,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
	}
	res, err := lab.Run(context.Background(), ExperimentSpec{Experiment: ExperimentConvergence, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	// The caller's GA budget must survive the merge: the convergence
	// trajectories are one entry per generation.
	if len(res.Convergence.Seeded) != 7 {
		t.Errorf("seeded trajectory has %d generations, want the caller's 7", len(res.Convergence.Seeded))
	}
	if res.Convergence.Benchmark != "anagram" {
		t.Errorf("benchmark = %s, want the caller's anagram", res.Convergence.Benchmark)
	}

	// A caller-set GA seed survives even when the budget fields are
	// unset (filled from QuickConfig): different seeds must be able to
	// produce different cold-GA trajectories through the merge.
	run := func(seed int64) []int64 {
		cfg := ExperimentConfig{
			Benchmarks:     []string{"anagram"},
			MaxSequences:   1,
			MaxSequenceLen: 250,
			GA:             GAConfig{Seed: seed},
		}
		r, err := lab.Run(context.Background(), ExperimentSpec{Experiment: ExperimentConvergence, Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		return r.Convergence.Cold
	}
	a, b := run(1), run(99)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("caller-set GA.Seed was dropped by the config merge (identical cold trajectories for seeds 1 and 99)")
	}
}

// TestPlaceKeepsSeedUnderDefaultBudget: a caller who sets only the seed
// of the GA or the random walk gets the paper's budget under that seed,
// not seed 1, as Lab.Run's merge already does
// (TestExperimentConfigPartialMerge).
func TestPlaceKeepsSeedUnderDefaultBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 400)
	for i := range words {
		words[i] = fmt.Sprintf("v%d", rng.Intn(40))
	}
	s, err := ParseSequence(strings.Join(words, " "))
	if err != nil {
		t.Fatal(err)
	}
	lab := newLab(t, WithWorkers(1))
	ga99 := DefaultGAConfig()
	ga99.Seed = 99
	for _, tc := range []struct {
		name                      string
		seedOnly, seed1, budget99 PlaceOptions
	}{
		{"RW",
			PlaceOptions{Strategy: RW, RW: RWConfig{Seed: 99}},
			PlaceOptions{Strategy: RW, RW: DefaultRWConfig()},
			PlaceOptions{Strategy: RW, RW: RWConfig{Iterations: DefaultRWConfig().Iterations, Seed: 99}}},
		{"GA",
			PlaceOptions{Strategy: GA, GA: GAConfig{Seed: 99}},
			PlaceOptions{Strategy: GA, GA: DefaultGAConfig()},
			PlaceOptions{Strategy: GA, GA: ga99}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			place := func(o PlaceOptions) *PlaceResult {
				t.Helper()
				o.DBCs = 4
				r, err := lab.Place(context.Background(), s, o)
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			want, seed1 := place(tc.budget99), place(tc.seed1)
			if want.Placement.Equal(seed1.Placement) {
				t.Fatal("seeds 1 and 99 give the same placement; the sequence cannot tell them apart")
			}
			if got := place(tc.seedOnly); !got.Placement.Equal(want.Placement) || got.Shifts != want.Shifts {
				t.Errorf("seed 99 with a defaulted budget gave %d shifts (%v), want seed 99's %d (%v)",
					got.Shifts, got.Placement, want.Shifts, want.Placement)
			}
		})
	}
}

// --- Instance scoping under concurrency ------------------------------

// TestTwoLabsSameNameConcurrent registers *different* strategies under
// the same name in two Labs and runs both concurrently; with the old
// process-global registry the second registration would have failed, and
// any cross-talk corrupts the per-Lab results. Run under -race this also
// exercises the registry and kernel-cache locking.
func TestTwoLabsSameNameConcurrent(t *testing.T) {
	// Strategy A: everything in DBC 0. Strategy B: round-robin.
	all0 := func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error) {
		p := &Placement{DBC: make([][]int, q)}
		seen := map[int]bool{}
		for _, a := range s.Accesses {
			if !seen[a.Var] {
				seen[a.Var] = true
				p.DBC[0] = append(p.DBC[0], a.Var)
			}
		}
		c, err := ShiftCost(s, p)
		return p, c, err
	}
	roundRobin := func(s *Sequence, q int, opts StrategyOptions) (*Placement, int64, error) {
		p := &Placement{DBC: make([][]int, q)}
		seen := map[int]bool{}
		i := 0
		for _, a := range s.Accesses {
			if !seen[a.Var] {
				seen[a.Var] = true
				p.DBC[i%q] = append(p.DBC[i%q], a.Var)
				i++
			}
		}
		c, err := ShiftCost(s, p)
		return p, c, err
	}

	labA, err := New(WithWorkers(4), WithStrategy("mine", all0))
	if err != nil {
		t.Fatal(err)
	}
	labB, err := New(WithWorkers(4), WithStrategy("mine", roundRobin))
	if err != nil {
		t.Fatal(err)
	}
	b := compatBenchmark(t)

	var wg sync.WaitGroup
	results := make([]*BenchmarkPlaceResult, 2)
	errs := make([]error, 2)
	for i, lab := range []*Lab{labA, labB} {
		wg.Add(1)
		go func(i int, lab *Lab) {
			defer wg.Done()
			results[i], errs[i] = lab.PlaceBenchmark(context.Background(), b,
				PlaceOptions{Strategy: "mine", DBCs: 4})
		}(i, lab)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("lab %d: %v", i, err)
		}
	}
	// The two Labs must have used their own algorithms: all0 leaves DBCs
	// 1..3 empty on every sequence, roundRobin does not (the benchmark
	// has sequences with >= 4 variables).
	spread := false
	for i := range b.Sequences {
		a, bb := results[0].Results[i].Placement, results[1].Results[i].Placement
		if len(a.DBC[1])+len(a.DBC[2])+len(a.DBC[3]) != 0 {
			t.Fatalf("lab A sequence %d: strategy cross-talk (non-empty DBC 1..3)", i)
		}
		if len(bb.DBC[1])+len(bb.DBC[2])+len(bb.DBC[3]) > 0 {
			spread = true
		}
	}
	if !spread {
		t.Fatal("lab B never spread variables: wrong strategy resolved")
	}
}

// --- Cancellation ----------------------------------------------------

// TestPlaceBenchmarkCancellation cancels the context from the progress
// callback mid-benchmark; the call must return the context error
// promptly instead of running the remaining cells.
func TestPlaceBenchmarkCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	finished := 0
	lab, err := New(WithWorkers(2), WithProgress(func(ev ProgressEvent) {
		if !ev.Done {
			return
		}
		mu.Lock()
		finished++
		mu.Unlock()
		cancel() // cancel as soon as the first cell completes
	}))
	if err != nil {
		t.Fatal(err)
	}
	b := compatBenchmark(t)
	if len(b.Sequences) < 4 {
		t.Fatalf("want a benchmark with many sequences, got %d", len(b.Sequences))
	}
	_, err = lab.PlaceBenchmark(ctx, b, PlaceOptions{Strategy: DMASR})
	if err == nil {
		t.Fatal("cancelled PlaceBenchmark returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error is %v, want context.Canceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if finished >= len(b.Sequences) {
		t.Errorf("all %d cells ran despite cancellation", finished)
	}

	// An already-cancelled context aborts Place/Run before any work.
	if _, err := lab.Place(ctx, b.Sequences[0], PlaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Place on cancelled ctx: %v", err)
	}
	if _, err := lab.Run(ctx, ExperimentSpec{Experiment: ExperimentFig4}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run on cancelled ctx: %v", err)
	}
	if _, err := lab.SimulateBenchmark(ctx, b, PlaceOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SimulateBenchmark on cancelled ctx: %v", err)
	}
}

// --- Progress events -------------------------------------------------

func TestProgressEvents(t *testing.T) {
	type key struct {
		strategy Strategy
		done     bool
	}
	counts := map[key]int{}
	var costs []int64
	lab, err := New(WithWorkers(3), WithProgress(func(ev ProgressEvent) {
		// The Lab serializes callbacks: no locking here, -race verifies.
		counts[key{ev.Strategy, ev.Done}]++
		if ev.Done {
			if ev.Err != nil {
				t.Errorf("cell error: %v", ev.Err)
			}
			costs = append(costs, ev.Shifts)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	b := compatBenchmark(t)
	res, err := lab.PlaceBenchmark(context.Background(), b, PlaceOptions{Strategy: DMASR})
	if err != nil {
		t.Fatal(err)
	}
	n := len(b.Sequences)
	if counts[key{DMASR, false}] != n || counts[key{DMASR, true}] != n {
		t.Errorf("events: %d started, %d finished, want %d each",
			counts[key{DMASR, false}], counts[key{DMASR, true}], n)
	}
	var sum int64
	for _, c := range costs {
		sum += c
	}
	if sum != res.TotalShifts {
		t.Errorf("progress costs sum %d != total %d", sum, res.TotalShifts)
	}

	// Single-sequence Place reports one cell.
	counts = map[key]int{}
	if _, err := lab.Place(context.Background(), b.Sequences[0], PlaceOptions{}); err != nil {
		t.Fatal(err)
	}
	if counts[key{DMAOFU, false}] != 1 || counts[key{DMAOFU, true}] != 1 {
		t.Errorf("single place events: %+v", counts)
	}
}

// --- Kernel cache ----------------------------------------------------

// tinyGA is a GA budget small enough for unit tests; the GA searches
// with a cost kernel, so it reaches the Lab's kernel cache.
var tinyGA = func() PlaceOptions {
	o := PlaceOptions{Strategy: GA, GA: DefaultGAConfig()}
	o.GA.Mu, o.GA.Lambda, o.GA.Generations = 8, 8, 3
	return o
}()

// TestKernelCacheContentAddressed: repeated searches on content-equal
// sequences — different pointers — hit the cache; results stay
// identical with the cache disabled.
func TestKernelCacheContentAddressed(t *testing.T) {
	text := "a b a b c a c a d d a i e f e f g e g h g i h i"
	lab, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	noCache, err := New(WithWorkers(1), WithKernelCache(0))
	if err != nil {
		t.Fatal(err)
	}
	opts := tinyGA
	opts.DBCs = 2
	var want *PlaceResult
	for i := 0; i < 5; i++ {
		s, err := ParseSequence(text) // fresh pointer every iteration
		if err != nil {
			t.Fatal(err)
		}
		got, err := lab.Place(context.Background(), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := noCache.Place(context.Background(), s, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.Shifts != cold.Shifts || !got.Placement.Equal(cold.Placement) {
			t.Fatalf("iteration %d: cached and uncached results differ", i)
		}
		if want == nil {
			want = got
		} else if got.Shifts != want.Shifts {
			t.Fatalf("iteration %d: result drifted", i)
		}
	}
	hits, misses := lab.cache.stats()
	if misses != 1 {
		t.Errorf("misses = %d, want 1 (one distinct trace)", misses)
	}
	if hits < 4 {
		t.Errorf("hits = %d, want >= 4 (four repeated placements)", hits)
	}
	if noCache.cache != nil {
		t.Error("WithKernelCache(0) did not disable the cache")
	}
}

// TestKernelCacheEviction: the cache is bounded LRU.
func TestKernelCacheEviction(t *testing.T) {
	lab, err := New(WithWorkers(1), WithKernelCache(2))
	if err != nil {
		t.Fatal(err)
	}
	traces := []string{"a b a b", "c d c d c", "e f e f e e"}
	for _, text := range traces {
		s, _ := ParseSequence(text)
		if _, err := lab.Place(context.Background(), s, tinyGA); err != nil {
			t.Fatal(err)
		}
	}
	if n := lab.cache.lru.Len(); n != 2 {
		t.Errorf("cache holds %d kernels, capacity 2", n)
	}
	// The oldest trace was evicted: placing it again misses.
	_, missesBefore := lab.cache.stats()
	s, _ := ParseSequence(traces[0])
	if _, err := lab.Place(context.Background(), s, tinyGA); err != nil {
		t.Fatal(err)
	}
	if _, misses := lab.cache.stats(); misses != missesBefore+1 {
		t.Errorf("expected an eviction-induced miss, misses %d -> %d", missesBefore, misses)
	}
}

// TestLabKernelSharing: only the strategies that search with a cost
// kernel reach the Lab's cache. The one-shot heuristics and the random
// walk price by replay and leave the cache at (0, 0) with results equal
// to a cache-less Lab's; a GA call builds exactly one kernel, and
// repeating it on a content-equal sequence hits it. Under a two-port
// objective the GA prices the exact port replay, so it leaves the cache
// at (0, 0) too.
func TestLabKernelSharing(t *testing.T) {
	ctx := context.Background()
	sameResult := func(t *testing.T, got, want *PlaceResult) {
		t.Helper()
		if got.Shifts != want.Shifts || !got.Placement.Equal(want.Placement) {
			t.Fatalf("got %d shifts (%v), want %d (%v)", got.Shifts, got.Placement, want.Shifts, want.Placement)
		}
		for d := range want.PerDBC {
			if got.PerDBC[d] != want.PerDBC[d] {
				t.Fatalf("PerDBC = %v, want %v", got.PerDBC, want.PerDBC)
			}
		}
	}
	stats := func(t *testing.T, lab *Lab, wantHits, wantMisses int64) {
		t.Helper()
		if hits, misses := lab.KernelCacheStats(); hits != wantHits || misses != wantMisses {
			t.Fatalf("KernelCacheStats() = (%d, %d), want (%d, %d)", hits, misses, wantHits, wantMisses)
		}
	}
	newLabs := func(t *testing.T) (cached, uncached *Lab) {
		t.Helper()
		cached, err := New(WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		uncached, err = New(WithWorkers(1), WithKernelCache(0))
		if err != nil {
			t.Fatal(err)
		}
		return cached, uncached
	}
	b := compatBenchmark(t)
	opts := func(st Strategy) PlaceOptions {
		o := PlaceOptions{Strategy: st, DBCs: 4, Objective: "energy"}
		switch st {
		case GA:
			o.GA = tinyGA.GA
		case RW:
			o.RW = RWConfig{Iterations: 200, Seed: 3}
		}
		return o
	}

	for _, tc := range []struct {
		name  string
		st    Strategy
		ports int
	}{
		{"AFD-OFU", AFDOFU, 0}, {"DMA-OFU", DMAOFU, 0}, {"DMA-Chen", DMAChen, 0},
		{"DMA-SR", DMASR, 0}, {"DMA-2opt", DMA2Opt, 0}, {"RW", RW, 0},
		{"GA-2ports", GA, 2}, {"RW-2ports", RW, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lab, ref := newLabs(t)
			o := opts(tc.st)
			o.Ports = tc.ports
			got, err := lab.Place(ctx, b.Sequences[0], o)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Place(ctx, b.Sequences[0], o)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want)
			gotB, err := lab.PlaceBenchmark(ctx, b, o)
			if err != nil {
				t.Fatal(err)
			}
			wantB, err := ref.PlaceBenchmark(ctx, b, o)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantB.Results {
				sameResult(t, gotB.Results[i], wantB.Results[i])
			}
			stats(t, lab, 0, 0)
		})
	}

	t.Run("GA", func(t *testing.T) {
		// Generation is deterministic: a content-equal sequence under a
		// fresh pointer on every call.
		seq := func() *Sequence { return compatBenchmark(t).Sequences[0] }
		lab, ref := newLabs(t)
		want, err := ref.Place(ctx, seq(), opts(GA))
		if err != nil {
			t.Fatal(err)
		}
		for round := int64(0); round < 2; round++ {
			got, err := lab.Place(ctx, seq(), opts(GA))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want)
			stats(t, lab, round, 1)
		}

		lab, _ = newLabs(t)
		for round := int64(0); round < 2; round++ {
			one := &Benchmark{Name: "one", Sequences: []*Sequence{seq()}}
			res, err := lab.PlaceBenchmark(ctx, one, opts(GA))
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, res.Results[0], want)
			stats(t, lab, round, 1)
		}
	})
}

// --- SimulateBenchmark satellite fixes -------------------------------

// TestSimulateBenchmarkDefaultsAndWorkers: SimulateBenchmarkOn applies
// the same defaults as Place (a missing strategy means DMA-OFU, not an
// error) and honors opts.Workers deterministically.
func TestSimulateBenchmarkDefaultsAndWorkers(t *testing.T) {
	ctx := context.Background()
	lab, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	b := compatBenchmark(t)
	dev, err := TableIDevice(4)
	if err != nil {
		t.Fatal(err)
	}
	// Default strategy: empty Strategy must behave like DMA-OFU.
	defaulted, err := lab.SimulateBenchmarkOn(ctx, dev, b, PlaceOptions{})
	if err != nil {
		t.Fatalf("empty strategy rejected: %v", err)
	}
	explicit, err := lab.SimulateBenchmarkOn(ctx, dev, b, PlaceOptions{Strategy: DMAOFU})
	if err != nil {
		t.Fatal(err)
	}
	if defaulted != explicit {
		t.Errorf("empty-strategy result %+v != DMA-OFU %+v", defaulted, explicit)
	}
	// Worker counts do not change the totals (bit-identical floats).
	parallel, err := lab.SimulateBenchmarkOn(ctx, dev, b, PlaceOptions{Strategy: DMAOFU, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if parallel != explicit {
		t.Errorf("workers=8 result %+v != sequential %+v", parallel, explicit)
	}
}
