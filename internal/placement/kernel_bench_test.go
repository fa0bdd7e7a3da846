package placement

import (
	"testing"

	"repro/internal/trace"
)

// kernelBenchWorkload is the XL workload of delta_bench_test.go placed
// into 4 DBCs by the DMA heuristic — the shape every full-cost hot path
// (GA fitness, RW scoring, driver re-pricing) evaluates.
func kernelBenchWorkload(b *testing.B) (*trace.Sequence, *Placement) {
	b.Helper()
	s, _, a := twoOptBenchWorkload(b)
	r, err := DMA(a, 4, 0)
	if err != nil {
		b.Fatal(err)
	}
	return s, r.Placement
}

// BenchmarkShiftCost measures the replay oracle: one full O(accesses)
// walk of the stream per evaluation. This is the PR 2 baseline every
// full evaluation used to pay.
func BenchmarkShiftCost(b *testing.B) {
	s, p := kernelBenchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink int64
	for i := 0; i < b.N; i++ {
		c, err := ShiftCost(s, p)
		if err != nil {
			b.Fatal(err)
		}
		sink += c
	}
	b.SetBytes(int64(s.Len()))
	_ = sink
}

// BenchmarkKernelCost measures one full kernel evaluation — the O(nnz)
// stencil scan over a caller-owned lookup, the scan CostDBC performs a
// DBC at a time for the GA's fitness. The acceptance bar is 0 allocs/op
// (gated in CI via benchjson).
func BenchmarkKernelCost(b *testing.B) {
	s, p := kernelBenchWorkload(b)
	k := NewCostKernel(s)
	lookup, err := p.BuildLookup(s.NumVars())
	if err != nil {
		b.Fatal(err)
	}
	want, err := ShiftCost(s, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var got int64
	for i := 0; i < b.N; i++ {
		got = k.Cost(lookup)
	}
	b.StopTimer()
	if got != want {
		b.Fatalf("kernel %d, replay %d", got, want)
	}
	b.ReportMetric(float64(k.NNZ()), "nnz")
}

// BenchmarkKernelBuild isolates the once-per-sequence kernel
// construction (recency walk + stencil dedup) that amortizes over every
// subsequent evaluation.
func BenchmarkKernelBuild(b *testing.B) {
	s, _ := kernelBenchWorkload(b)
	b.ResetTimer()
	var k *CostKernel
	for i := 0; i < b.N; i++ {
		k = NewCostKernel(s)
	}
	b.StopTimer()
	if k.NNZ() == 0 {
		b.Fatal("empty kernel")
	}
	b.SetBytes(int64(s.Len()))
}

// BenchmarkStreamingKernel measures out-of-core kernel construction:
// one pass over a synthetic loop-structured generator stream (the trace
// is never materialized), the path the CI bigtrace job runs under a
// memory ceiling. SetBytes is the stream length, so MB/s reads as
// accesses/µs.
func BenchmarkStreamingKernel(b *testing.B) {
	cfg := trace.SynthConfig{Vars: 2048, Accesses: 1 << 20, Seed: 13}
	b.SetBytes(cfg.Accesses)
	b.ReportAllocs()
	b.ResetTimer()
	var k *CostKernel
	for i := 0; i < b.N; i++ {
		r, err := trace.NewSynthReader(cfg)
		if err != nil {
			b.Fatal(err)
		}
		k, err = NewCostKernelStream(r.NumVars(), r)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if k.NNZ() == 0 || k.Accesses() != int(cfg.Accesses) {
		b.Fatalf("bad kernel %v", k)
	}
	b.ReportMetric(float64(k.NNZ()), "nnz")
}

// BenchmarkDeltaSetupFromKernel measures deriving a DBC's incremental
// evaluator from a shared kernel, the O(nnz) replacement for the O(m)
// replay setup the memetic GA mutation used to pay per call.
func BenchmarkDeltaSetupFromKernel(b *testing.B) {
	s, p := kernelBenchWorkload(b)
	k := NewCostKernel(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewDeltaEvaluatorFromKernel(k, p.DBC[i%len(p.DBC)])
		if e.Len() == 0 {
			b.Fatal("empty evaluator")
		}
	}
}
