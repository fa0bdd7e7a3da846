package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/placement"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testRegistry returns a fresh strategy registry seeded with the
// builtins.
func testRegistry(t testing.TB) *placement.Registry {
	t.Helper()
	reg, err := placement.NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// testHooks resolves the batch cells in a fresh registry.
func testHooks(t testing.TB) Hooks { return Hooks{Registry: testRegistry(t)} }

// echoHooks registers, next to the builtins, a strategy "echo" that
// prices each cell at its DBC count, so an outcome names the cell it
// came from, and that fails a cell whose DBC count fail maps to an
// error.
func echoHooks(t testing.TB, fail map[int]error) Hooks {
	t.Helper()
	reg := testRegistry(t)
	err := reg.Register(placement.NewStrategy("echo", func(_ *trace.Sequence, q int, _ placement.Options) (*placement.Placement, int64, error) {
		if err := fail[q]; err != nil {
			return nil, 0, err
		}
		return nil, int64(q), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return Hooks{Registry: reg}
}

// echoJobs returns n "echo" cells; cell i runs at i+1 DBCs.
func echoJobs(t testing.TB, n int) []PlaceJob {
	t.Helper()
	s, err := trace.NewNamedSequence("a", "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]PlaceJob, n)
	for i := range jobs {
		jobs[i] = PlaceJob{Sequence: s, Strategy: "echo", DBCs: i + 1}
	}
	return jobs
}

// TestRunReturnsLowestIndexError: a batch with several failing cells
// reports the failure of the lowest-index one, at any worker count.
func TestRunReturnsLowestIndexError(t *testing.T) {
	boom7 := errors.New("boom 7")
	hooks := echoHooks(t, map[int]error{8: boom7, 24: errors.New("boom 23")})
	for _, workers := range []int{1, 4} {
		_, err := BatchPlace(context.Background(), echoJobs(t, 64), workers, hooks)
		if !errors.Is(err, boom7) {
			t.Fatalf("workers=%d: got %v, want boom 7", workers, err)
		}
	}
}

// TestMapCollectsInOrder: a batch returns each cell's outcome at the
// cell's own index, at any worker count, and a failing cell fails the
// batch without partial outcomes.
func TestMapCollectsInOrder(t *testing.T) {
	for _, workers := range []int{1, 5} {
		out, err := BatchPlace(context.Background(), echoJobs(t, 20), workers, echoHooks(t, nil))
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range out {
			if o.Shifts != int64(i+1) {
				t.Fatalf("workers=%d: out[%d].Shifts = %d", workers, i, o.Shifts)
			}
		}
	}
	fail := map[int]error{}
	for q := 1; q <= 5; q++ {
		fail[q] = fmt.Errorf("fail %d", q)
	}
	if out, err := BatchPlace(context.Background(), echoJobs(t, 5), 2, echoHooks(t, fail)); err == nil || out != nil {
		t.Fatalf("error not propagated: out = %v, err = %v", out, err)
	}
}

// testJobs builds a realistic mixed batch over a generated benchmark:
// every (sequence × heuristic strategy × DBC count) cell.
func testJobs(t testing.TB, bench string) []PlaceJob {
	t.Helper()
	b, err := offsetstone.Generate(bench)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []PlaceJob
	for _, q := range []int{2, 4} {
		for _, id := range placement.HeuristicStrategies() {
			for _, s := range b.Sequences {
				jobs = append(jobs, PlaceJob{Sequence: s, Strategy: id, DBCs: q})
			}
		}
	}
	return jobs
}

// TestBatchPlaceDeterministic is the engine determinism contract: the
// same batch must produce identical placements and shift counts for
// workers=1 and workers=8.
func TestBatchPlaceDeterministic(t *testing.T) {
	jobs := testJobs(t, "gsm")
	hooks := testHooks(t)
	seq, err := BatchPlace(context.Background(), jobs, 1, hooks)
	if err != nil {
		t.Fatal(err)
	}
	par, err := BatchPlace(context.Background(), jobs, 8, hooks)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Shifts != par[i].Shifts {
			t.Errorf("job %d: shifts %d vs %d", i, seq[i].Shifts, par[i].Shifts)
		}
		if !seq[i].Placement.Equal(par[i].Placement) {
			t.Errorf("job %d: placements differ", i)
		}
	}
}

// TestBatchSimulateDeterministic extends the contract to full simulation
// cells (placement + device replay + Table I latency/energy).
func TestBatchSimulateDeterministic(t *testing.T) {
	b, err := offsetstone.Generate("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	var jobs []SimJob
	for _, q := range []int{2, 4} {
		cfg, err := sim.TableIConfig(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range placement.HeuristicStrategies() {
			for _, s := range b.Sequences {
				jobs = append(jobs, SimJob{Config: cfg, Sequence: s, Strategy: id})
			}
		}
	}
	hooks := testHooks(t)
	one, err := BatchSimulate(context.Background(), jobs, 1, hooks)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := BatchSimulate(context.Background(), jobs, 8, hooks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range one {
		if one[i] != eight[i] {
			t.Errorf("cell %d: %+v vs %+v", i, one[i], eight[i])
		}
	}
}

// TestBatchKernelSharing: a batch builds a cost kernel only for the
// sequences that have a cell whose strategy searches with one (the GA at
// one port), exactly once per sequence at any worker count, and hands it
// to those cells only; the heuristic cells price by replay. A
// heuristic-only batch, a random-walk-only batch and a batch under a
// two-port objective never call the kernel source.
func TestBatchKernelSharing(t *testing.T) {
	b, err := offsetstone.Generate("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	// The heuristics run as probes, registered under their own names
	// next to the builtins, that record whether a kernel reached them.
	reg := testRegistry(t)
	var withKernel atomic.Int32
	probe := func(id placement.StrategyID) placement.StrategyID {
		st, _ := reg.Lookup(id)
		name := "probe-" + string(id)
		err := reg.Register(placement.NewStrategy(name, func(s *trace.Sequence, q int, o placement.Options) (*placement.Placement, int64, error) {
			if o.Kernel != nil {
				withKernel.Add(1)
			}
			return st.Place(s, q, o)
		}))
		if err != nil {
			t.Fatal(err)
		}
		return placement.StrategyID(name)
	}
	seqs := b.Sequences[:2]
	var opts placement.Options
	opts.GA = placement.DefaultGAConfig()
	opts.GA.Mu, opts.GA.Lambda, opts.GA.Generations = 6, 6, 2
	opts.RW = placement.RWConfig{Iterations: 50, Seed: 1}
	twoPort := opts
	twoPort.Ports = 2
	batch := func(opts placement.Options, ids ...placement.StrategyID) []PlaceJob {
		var jobs []PlaceJob
		for _, q := range []int{2, 4, 8} {
			for _, s := range seqs {
				for _, id := range ids {
					jobs = append(jobs, PlaceJob{Sequence: s, Strategy: id, DBCs: q, Options: opts})
				}
			}
		}
		return jobs
	}
	dmaOFU, dmaSR := probe(placement.StrategyDMAOFU), probe(placement.StrategyDMASR)
	afd, twoOpt := probe(placement.StrategyAFDOFU), probe(placement.StrategyDMATwoOpt)
	for _, tc := range []struct {
		name  string
		jobs  []PlaceJob
		wantK int // kernel-source calls per sequence
	}{
		{"mixed", batch(opts, placement.StrategyGA, dmaOFU, placement.StrategyRW, afd, twoOpt), 1},
		{"heuristic-only", batch(opts, dmaSR, dmaOFU, twoOpt), 0},
		{"rw-only", batch(opts, placement.StrategyRW), 0},
		{"two-port", batch(twoPort, placement.StrategyGA, placement.StrategyRW, dmaOFU), 0},
	} {
		var want []PlaceOutcome
		for _, workers := range []int{1, 4} {
			var mu sync.Mutex
			calls := map[*trace.Sequence]int{}
			withKernel.Store(0)
			hooks := Hooks{
				Registry: reg,
				Kernel: func(s *trace.Sequence) *placement.CostKernel {
					mu.Lock()
					calls[s]++
					mu.Unlock()
					return placement.NewCostKernel(s)
				},
			}
			out, err := BatchPlace(context.Background(), tc.jobs, workers, hooks)
			if err != nil {
				t.Fatalf("%s, workers=%d: %v", tc.name, workers, err)
			}
			for _, s := range seqs {
				if calls[s] != tc.wantK {
					t.Errorf("%s, workers=%d: kernel source called %d times for a sequence, want %d", tc.name, workers, calls[s], tc.wantK)
				}
			}
			if n := withKernel.Load(); n != 0 {
				t.Errorf("%s, workers=%d: %d heuristic cells received a kernel", tc.name, workers, n)
			}
			if want == nil {
				want = out
				continue
			}
			for i := range want {
				if out[i].Shifts != want[i].Shifts || !out[i].Placement.Equal(want[i].Placement) {
					t.Errorf("%s: cell %d differs between worker counts", tc.name, i)
				}
			}
		}
	}
}

func TestBatchPlaceUnknownStrategy(t *testing.T) {
	s, err := trace.NewNamedSequence("a", "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	jobs := []PlaceJob{
		{Sequence: s, Strategy: placement.StrategyDMASR, DBCs: 2},
		{Sequence: s, Strategy: "no-such-strategy", DBCs: 2},
	}
	if _, err := BatchPlace(context.Background(), jobs, 4, testHooks(t)); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	// Without a registry no name resolves: the batch fails before any
	// cell runs.
	if _, err := BatchPlace(context.Background(), jobs[:1], 4, Hooks{}); !errors.Is(err, errNoRegistry) {
		t.Fatalf("batch without a registry: err = %v", err)
	}
	if _, err := BatchSimulate(context.Background(), nil, 4, Hooks{}); !errors.Is(err, errNoRegistry) {
		t.Fatalf("simulation batch without a registry: err = %v", err)
	}
}

// BenchmarkBatch measures batch placement throughput; run with
// -cpu 1,4 to see the engine scale across cores (workers follow
// GOMAXPROCS).
func BenchmarkBatch(b *testing.B) {
	jobs := testJobs(b, "gsm")
	hooks := testHooks(b)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BatchPlace(context.Background(), jobs, workers, hooks); err != nil {
			b.Fatal(err)
		}
	}
}
