package placement

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/trace"
)

// testRegistry is the registry the package's tests resolve strategy names
// in: one fresh instance seeded with the builtins. Tests that register
// strategies build their own with newRegistry.
var testRegistry = func() *Registry {
	r, err := NewRegistry()
	if err != nil {
		panic(err)
	}
	return r
}()

func newRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLookupUnknownStrategy(t *testing.T) {
	r := newRegistry(t)
	if _, ok := r.Lookup("no-such-strategy"); ok {
		t.Fatal("unknown strategy resolved")
	}
	s := mustSeq(t, "a b a b")
	if _, _, err := r.Place("no-such-strategy", s, 2, Options{}); err == nil {
		t.Fatal("Place accepted unknown strategy")
	} else if !strings.Contains(err.Error(), "unknown strategy") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRegisterRejectsDuplicatesAndEmpty(t *testing.T) {
	r := newRegistry(t)
	dummy := func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	}
	if err := r.Register(NewStrategy(string(StrategyAFDOFU), dummy)); err == nil {
		t.Fatal("duplicate registration of a builtin accepted")
	}
	if err := r.Register(NewStrategy("", dummy)); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := r.Register(nil); err == nil {
		t.Fatal("nil strategy accepted")
	}
	if err := r.Register(NewStrategy("registry-test-nil-fn", nil)); err == nil {
		t.Fatal("nil placement function accepted")
	}
	name := "registry-test-dup"
	if err := r.Register(NewStrategy(name, dummy)); err != nil {
		t.Fatalf("first registration: %v", err)
	}
	if err := r.Register(NewStrategy(name, dummy)); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	// The registration is scoped to r: another registry does not see it.
	if _, ok := newRegistry(t).Lookup(StrategyID(name)); ok {
		t.Fatal("registration leaked into a second registry")
	}
}

// TestRegistryConcurrentAccess hammers lookups, listings and
// registrations from many goroutines; run under -race this checks the
// registry's locking.
func TestRegistryConcurrentAccess(t *testing.T) {
	r := newRegistry(t)
	dummy := func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, ok := r.Lookup(StrategyDMASR); !ok {
					t.Error("builtin disappeared")
					return
				}
				r.Registered()
				if i%10 == 0 {
					if err := r.Register(NewStrategy(fmt.Sprintf("registry-test-conc-%d-%d", g, i), dummy)); err != nil {
						t.Errorf("register: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestRegisteredOrderBuiltinsFirst(t *testing.T) {
	r := newRegistry(t)
	dummy := func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	}
	// Plugins sort by name after the paper strategies, whatever the
	// registration order.
	for _, name := range []string{"zz-plugin", "AA-plugin"} {
		if err := r.Register(NewStrategy(name, dummy)); err != nil {
			t.Fatal(err)
		}
	}
	ids := r.Registered()
	paper := AllStrategies()
	want := append(paper, "AA-plugin", StrategyDMATwoOpt, StrategyGAMemetic, "zz-plugin")
	if len(ids) != len(want) {
		t.Fatalf("registered %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("position %d: got %s, want %s (all: %v)", i, ids[i], want[i], ids)
		}
	}
}

// TestUsesKernelBuiltins pins which builtins a kernel source serves: the
// GA and GA-2opt searches at one port, and no strategy under a
// multi-port objective, where the searches price the exact port replay.
// The random walk prices scattered placements by replay and gets none.
func TestUsesKernelBuiltins(t *testing.T) {
	want := map[StrategyID]bool{StrategyGA: true, StrategyGAMemetic: true}
	for _, st := range builtinStrategies() {
		id := StrategyID(st.Name())
		for _, ports := range []int{0, 1, 2, 4} {
			got := UsesKernel(st, Options{Ports: ports})
			if exp := want[id] && ports <= 1; got != exp {
				t.Errorf("UsesKernel(%s, Ports %d) = %v, want %v", id, ports, got, exp)
			}
		}
	}
	custom := NewStrategy("custom", func(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
		return NewEmpty(q), 0, nil
	})
	if UsesKernel(custom, Options{}) {
		t.Error("a custom strategy uses a kernel")
	}
}

// legacyPlace is a verbatim copy of the pre-registry Place switch (the
// seed's strategy.go). The golden parity test below guarantees the
// registry dispatch reproduces it exactly for all six paper strategies.
func legacyPlace(id StrategyID, s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	a := trace.Analyze(s)
	switch id {
	case StrategyAFDOFU:
		p, err := AFD(a, q)
		if err != nil {
			return nil, 0, err
		}
		p = ApplyIntra(p, 0, q, OFU, s, a)
		c, err := ShiftCost(s, p)
		return p, c, err

	case StrategyDMAOFU, StrategyDMAChen, StrategyDMASR:
		r, err := DMA(a, q, opts.Capacity)
		if err != nil {
			return nil, 0, err
		}
		var h IntraHeuristic
		switch id {
		case StrategyDMAOFU:
			h = OFU
		case StrategyDMAChen:
			h = Chen
		default:
			h = ShiftsReduce
		}
		p := ApplyIntra(r.Placement, r.DisjointDBCs, q, h, s, a)
		c, err := ShiftCost(s, p)
		return p, c, err

	case StrategyGA:
		cfg := opts.GA
		if cfg.Mu == 0 {
			cfg = DefaultGAConfig()
		}
		cfg.Capacity = opts.Capacity
		if len(cfg.Seeds) == 0 && !opts.DisableGASeeding {
			seeds, err := heuristicSeeds(s, q, opts)
			if err != nil {
				return nil, 0, err
			}
			cfg.Seeds = seeds
		}
		res, err := GAContext(context.Background(), s, q, cfg)
		if err != nil {
			return nil, 0, err
		}
		return res.Best, res.Cost, nil

	case StrategyRW:
		cfg := opts.RW
		if cfg.Iterations == 0 {
			cfg = DefaultRWConfig()
		}
		return RandomWalk(s, q, Options{RW: cfg, Capacity: opts.Capacity})

	default:
		return nil, 0, fmt.Errorf("placement: unknown strategy %q", id)
	}
}

// TestRegistryParityWithLegacySwitch is the golden parity test: every
// paper strategy must produce the same placement and shift count through
// a fresh registry as through the seed's switch dispatch.
func TestRegistryParityWithLegacySwitch(t *testing.T) {
	seqs := []string{
		"a b a b c a c a d d a",
		"a b c d e f a b c d e f a a b b",
		"x y x z y x w z w y x v v v w",
		"a a a a",
		"p q r s t u v w x y z p p q q r r s s",
	}
	opts := Options{
		GA: GAConfig{Mu: 8, Lambda: 8, Generations: 6, TournamentK: 2,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 7},
		RW: RWConfig{Iterations: 120, Seed: 7},
	}
	reg := newRegistry(t)
	for _, text := range seqs {
		s := mustSeq(t, text)
		for _, q := range []int{1, 2, 4} {
			for _, id := range AllStrategies() {
				wantP, wantC, wantErr := legacyPlace(id, s, q, opts)
				gotP, gotC, gotErr := reg.Place(id, s, q, opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s q=%d %q: error mismatch: legacy %v, registry %v", id, q, text, wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if gotC != wantC {
					t.Errorf("%s q=%d %q: shifts: legacy %d, registry %d", id, q, text, wantC, gotC)
				}
				if !gotP.Equal(wantP) {
					t.Errorf("%s q=%d %q: placements differ:\n legacy  %s\n registry %s", id, q, text, wantP, gotP)
				}
			}
		}
	}
}

// The GA's seeds come from the builtin heuristics without a registry
// lookup or a pricing pass; they must still be exactly the placements the
// registry's heuristic strategies return, in HeuristicStrategies order.
// TestGAPlaceKeepsCallerFieldsUnderDefaultBudget: a GA config with no
// budget (Mu == 0) takes the paper's budget and keeps every other field
// the caller set. ImproveWeight and Seeds used to fall away with the
// rest of the caller's config.
func TestGAPlaceKeepsCallerFieldsUnderDefaultBudget(t *testing.T) {
	s := randSeq(rand.New(rand.NewSource(5)), 30, 300)
	const q = 4
	place := func(cfg GAConfig, disableSeeding bool) (*Placement, int64) {
		t.Helper()
		p, c, err := testRegistry.Place(StrategyGA, s, q, Options{GA: cfg, DisableGASeeding: disableSeeding})
		if err != nil {
			t.Fatal(err)
		}
		return p, c
	}
	full := func(mod func(*GAConfig)) GAConfig {
		cfg := DefaultGAConfig()
		cfg.Seed = 7
		mod(&cfg)
		return cfg
	}
	same := func(name string, gotP *Placement, got int64, wantP *Placement, want int64) {
		t.Helper()
		if got != want || !gotP.Equal(wantP) {
			t.Errorf("%s with a defaulted budget: %d shifts (%v), want %d (%v)", name, got, gotP, want, wantP)
		}
	}

	plainP, _ := place(full(func(*GAConfig) {}), false)
	wantP, want := place(full(func(c *GAConfig) { c.ImproveWeight = 20 }), false)
	if plainP.Equal(wantP) {
		t.Fatal("ImproveWeight 20 and 0 give the same placement; the sequence cannot tell them apart")
	}
	gotP, got := place(GAConfig{Seed: 7, ImproveWeight: 20}, false)
	same("ImproveWeight", gotP, got, wantP, want)

	rr := NewEmpty(q)
	for i, v := range trace.Analyze(s).ByFirstUse() {
		rr.DBC[i%q] = append(rr.DBC[i%q], v)
	}
	coldP, _ := place(full(func(*GAConfig) {}), true)
	wantP, want = place(full(func(c *GAConfig) { c.Seeds = []*Placement{rr} }), true)
	if coldP.Equal(wantP) {
		t.Fatal("a seeded and a cold run give the same placement; the sequence cannot tell them apart")
	}
	gotP, got = place(GAConfig{Seed: 7, Seeds: []*Placement{rr}}, true)
	same("Seeds", gotP, got, wantP, want)
}

func TestHeuristicSeedsMatchRegistry(t *testing.T) {
	reg := newRegistry(t)
	s := mustSeq(t, "a b a b c a c a d d a e f e f g h g h a b")
	for _, opts := range []Options{{}, {Capacity: 3}} {
		seeds, err := heuristicSeeds(s, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		ids := HeuristicStrategies()
		if len(seeds) != len(ids) {
			t.Fatalf("%d seeds, want %d", len(seeds), len(ids))
		}
		for i, id := range ids {
			p, _, err := reg.Place(id, s, 3, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !p.Equal(seeds[i]) {
				t.Errorf("capacity %d: seed %d is %s, %s places %s", opts.Capacity, i, seeds[i], id, p)
			}
		}
	}
}

// TestDMATwoOptNeverWorseThanDMASR checks the invariant the DMA-2opt
// extension strategy is registered under: 2-opt polishing can only keep
// or reduce the DMA-SR cost.
func TestDMATwoOptNeverWorseThanDMASR(t *testing.T) {
	seqs := []string{
		"a b a b c a c a d d a",
		"a b c d e f a b c d e f a a b b",
		"x y x z y x w z w y x v v v w",
		"p q r s t u v w x y z p p q q r r s s t u v",
	}
	for _, text := range seqs {
		s := mustSeq(t, text)
		for _, q := range []int{1, 2, 4} {
			_, sr, err := testRegistry.Place(StrategyDMASR, s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, refined, err := PlaceDMATwoOpt(s, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if refined > sr {
				t.Errorf("q=%d %q: DMA-2opt %d > DMA-SR %d", q, text, refined, sr)
			}
		}
	}
}

func mustSeq(t *testing.T, text string) *trace.Sequence {
	t.Helper()
	s, err := trace.NewNamedSequence(strings.Fields(text)...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNilRegistryIsError: the by-name drivers resolve only in the
// registry they are handed; without one they fail instead of falling
// back to shared state.
func TestNilRegistryIsError(t *testing.T) {
	s := mustSeq(t, "a b a b c c")
	if _, err := RacePortfolio(context.Background(), s, 2, PortfolioConfig{}); err == nil || !strings.Contains(err.Error(), "no registry") {
		t.Errorf("RacePortfolio without a registry: err = %v", err)
	}
	cfg := StreamConfig{NumVars: s.NumVars(), DBCs: 2, Strategy: StrategyDMAOFU}
	if _, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), cfg); err == nil || !strings.Contains(err.Error(), "no registry") {
		t.Errorf("PlaceStreamed without a registry: err = %v", err)
	}
}
