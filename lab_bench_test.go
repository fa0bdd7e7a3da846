package racetrack

import (
	"context"
	"testing"
)

// BenchmarkLabKernelCache measures what the Lab's content-addressed
// kernel cache buys on repeated pricing of the same trace with the GA:
// without a supplied kernel every GA call summarizes the sequence into a
// fresh kernel and recomputes the four heuristic seed placements; the
// cached Lab reuses the kernel across calls, so the build happens once
// and the seeds come out of the kernel's per-(q, capacity) memo.
// Results are bit-identical; only the time differs.
func BenchmarkLabKernelCache(b *testing.B) {
	bench, err := GenerateBenchmark("gsm")
	if err != nil {
		b.Fatal(err)
	}
	seq := bench.Sequences[0]
	for _, s := range bench.Sequences {
		if s.Len() > seq.Len() {
			seq = s
		}
	}
	opts := PlaceOptions{
		Strategy: GA,
		DBCs:     4,
		GA: GAConfig{Mu: 16, Lambda: 16, Generations: 4, TournamentK: 4,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
	}
	for _, mode := range []struct {
		name string
		cap  int
	}{
		{"cached", DefaultKernelCacheSize},
		{"uncached", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			lab, err := New(WithWorkers(1), WithKernelCache(mode.cap))
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			// One warm-up call so the cached mode measures steady-state
			// hits, not the one-time kernel build.
			if _, err := lab.Place(ctx, seq, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lab.Place(ctx, seq, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOneShotPlace is rtmplace's placement path without the file
// decode: a fresh Lab and one PlaceBenchmark of an OffsetStone benchmark
// with a strategy that places each sequence once. These strategies price
// by replay and build no cost kernel, so the bench gate's allocs/op
// entries fail if an eager kernel build comes back.
func BenchmarkOneShotPlace(b *testing.B) {
	bench, err := GenerateBenchmark("gsm")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, st := range []Strategy{DMAOFU, DMA2Opt} {
		b.Run(string(st), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lab, err := New(WithWorkers(1))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := lab.PlaceBenchmark(ctx, bench, PlaceOptions{Strategy: st, DBCs: 4}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
