package placement

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

// Golden parity suite for NewCostKernelStream: a kernel built from a
// stream must be bit-identical — table for table, cost for cost — to one
// built eagerly from the materialized sequence (DESIGN.md §12). The two
// constructors share kernelBuilder, so these tests pin that the sharing
// actually holds and never drifts.

// requireKernelTablesEqual compares the full internal stencil tables.
// Bit-identical tables imply bit-identical Cost/CostBounded/CostDBC/
// Breakdown on every placement.
func requireKernelTablesEqual(t *testing.T, label string, eager, stream *CostKernel) {
	t.Helper()
	if eager.Accesses() != stream.Accesses() {
		t.Fatalf("%s: accesses %d vs %d", label, eager.Accesses(), stream.Accesses())
	}
	if eager.NNZ() != stream.NNZ() || eager.Candidates() != stream.Candidates() {
		t.Fatalf("%s: table shape (nnz %d, cand %d) vs (nnz %d, cand %d)",
			label, eager.NNZ(), eager.Candidates(), stream.NNZ(), stream.Candidates())
	}
	if !reflect.DeepEqual(eager.tvar, stream.tvar) ||
		!reflect.DeepEqual(eager.wgt, stream.wgt) ||
		!reflect.DeepEqual(eager.start, stream.start) ||
		!reflect.DeepEqual(eager.cand, stream.cand) {
		t.Fatalf("%s: stencil tables differ", label)
	}
	if !reflect.DeepEqual(eager.varOrder, stream.varOrder) ||
		!reflect.DeepEqual(eager.accCnt, stream.accCnt) {
		t.Fatalf("%s: layout metadata differs", label)
	}
}

func TestStreamKernelParityRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		numVars := 1 + rng.Intn(24)
		s := randKernelSeq(rng, numVars, 1+rng.Intn(400))
		eager := NewCostKernel(s)
		stream, err := NewCostKernelStream(s.NumVars(), trace.NewSliceReader(s))
		if err != nil {
			t.Fatal(err)
		}
		requireKernelTablesEqual(t, fmt.Sprintf("trial %d", trial), eager, stream)
		if stream.Sequence() != nil {
			t.Fatalf("trial %d: streamed kernel has a bound sequence", trial)
		}
		for rep := 0; rep < 4; rep++ {
			q := 1 + rng.Intn(6)
			p := randFullPlacement(rng, numVars, q)
			want, err := eager.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := stream.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("trial %d rep %d: stream %d, eager %d", trial, rep, got, want)
			}
			wb, err := eager.Breakdown(p)
			if err != nil {
				t.Fatal(err)
			}
			gb, err := stream.Breakdown(p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wb, gb) {
				t.Fatalf("trial %d rep %d: breakdowns differ:\n%+v\n%+v", trial, rep, wb, gb)
			}
		}
	}
}

// TestStreamKernelParityOnSuite runs every seeded OffsetStone benchmark
// through both constructors and requires identical tables.
func TestStreamKernelParityOnSuite(t *testing.T) {
	names := offsetstone.Names()
	if testing.Short() && len(names) > 6 {
		names = names[:6]
	}
	for _, name := range names {
		b, err := offsetstone.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for si, s := range b.Sequences {
			eager := NewCostKernel(s)
			stream, err := NewCostKernelStream(s.NumVars(), trace.NewSliceReader(s))
			if err != nil {
				t.Fatal(err)
			}
			requireKernelTablesEqual(t, fmt.Sprintf("%s seq %d", name, si), eager, stream)
		}
	}
}

// TestStreamKernelParitySynth pins the actual out-of-core pipeline: a
// kernel built straight off the synthetic generator (never holding the
// trace) equals one built from the materialized sequence.
func TestStreamKernelParitySynth(t *testing.T) {
	cfg := trace.SynthConfig{Vars: 300, Accesses: 60000, Seed: 21}
	gen, err := trace.NewSynthReader(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := NewCostKernelStream(gen.NumVars(), gen)
	if err != nil {
		t.Fatal(err)
	}
	s, err := cfg.Sequence()
	if err != nil {
		t.Fatal(err)
	}
	eager := NewCostKernel(s)
	// The eager universe may be smaller (unnamed sequences shrink to the
	// max accessed variable); the tables over accessed variables must
	// still match exactly.
	if !reflect.DeepEqual(eager.tvar, stream.tvar) ||
		!reflect.DeepEqual(eager.wgt, stream.wgt) ||
		!reflect.DeepEqual(eager.start, stream.start) ||
		!reflect.DeepEqual(eager.cand, stream.cand) ||
		!reflect.DeepEqual(eager.varOrder, stream.varOrder) {
		t.Fatal("generator-built kernel differs from sequence-built kernel")
	}

	rng := rand.New(rand.NewSource(5))
	for rep := 0; rep < 4; rep++ {
		p := randFullPlacement(rng, s.NumVars(), 1+rng.Intn(6))
		want, err := ShiftCost(s, p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stream.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("rep %d: stream kernel %d, replay oracle %d", rep, got, want)
		}
	}
}

// TestStreamKernelDeltaEvaluator checks kernel-derived incremental
// evaluators work identically off a streamed kernel.
func TestStreamKernelDeltaEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	s := randKernelSeq(rng, 16, 300)
	eager := NewCostKernel(s)
	stream, err := NewCostKernelStream(s.NumVars(), trace.NewSliceReader(s))
	if err != nil {
		t.Fatal(err)
	}
	order := []int{3, 1, 7, 12, 5}
	re := NewDeltaEvaluatorFromKernel(eager, order)
	se := NewDeltaEvaluatorFromKernel(stream, order)
	if re.cost != se.cost || re.Accesses() != se.Accesses() {
		t.Fatalf("derived evaluators differ: (cost %d, acc %d) vs (cost %d, acc %d)",
			re.cost, re.Accesses(), se.cost, se.Accesses())
	}
	for m := 0; m < 20; m++ {
		i, j := rng.Intn(len(order)), rng.Intn(len(order))
		if i > j {
			i, j = j, i
		}
		if a, b := re.SwapDelta(i, j), se.SwapDelta(i, j); a != b {
			t.Fatalf("move %d: SwapDelta(%d,%d) %d vs %d", m, i, j, a, b)
		}
		re.Swap(i, j)
		se.Swap(i, j)
	}
}

type failingReader struct {
	n   int
	err error
}

func (r *failingReader) Next() (trace.Access, error) {
	if r.n == 0 {
		return trace.Access{}, r.err
	}
	r.n--
	return trace.Access{Var: 0}, nil
}

func TestStreamKernelErrors(t *testing.T) {
	if _, err := NewCostKernelStream(-1, trace.NewSliceReader(&trace.Sequence{})); err == nil {
		t.Fatal("negative universe accepted")
	}

	boom := errors.New("disk on fire")
	if _, err := NewCostKernelStream(4, &failingReader{n: 3, err: boom}); !errors.Is(err, boom) {
		t.Fatalf("reader error not propagated: %v", err)
	}

	s := trace.NewSequence(0, 1, 2, 1)
	if _, err := NewCostKernelStream(2, trace.NewSliceReader(s)); err == nil {
		t.Fatal("out-of-universe access accepted")
	}

	// Empty stream: a valid, zero-cost kernel.
	k, err := NewCostKernelStream(3, trace.NewSliceReader(&trace.Sequence{}))
	if err != nil {
		t.Fatal(err)
	}
	if c, err := k.Evaluate(&Placement{DBC: [][]int{{0, 1, 2}}}); err != nil || c != 0 {
		t.Fatalf("empty stream kernel: cost %d err %v, want 0 nil", c, err)
	}

	// Rebind cannot verify content equality without the stream; it must
	// refuse rather than guess.
	ks, err := NewCostKernelStream(s.NumVars(), trace.NewSliceReader(s))
	if err != nil {
		t.Fatal(err)
	}
	if got := ks.Rebind(s); got != nil {
		t.Fatal("streamed kernel rebound to a sequence it cannot verify")
	}

	// Breakdown's unplaced-variable diagnostic must work without a name
	// table.
	if _, err := ks.Breakdown(&Placement{DBC: [][]int{{0}}}); err == nil {
		t.Fatal("unplaced accessed variable accepted")
	}
}
