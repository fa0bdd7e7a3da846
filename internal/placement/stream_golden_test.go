package placement

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/trace"
)

// digestStreamResult folds every field of a streamed result into h,
// the priced Cost included (a presence byte, then each of its fields).
func digestStreamResult(h hash.Hash64, r *StreamResult) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, v := range []int64{
		r.Accesses, int64(r.Windows), r.Shifts, r.WindowShifts, r.MigrationShifts,
		r.MigratedVars, r.Reads, r.Writes, int64(r.MaxWindowVars),
	} {
		put(uint64(v))
	}
	if r.Cost == nil {
		put(0)
		return
	}
	c := r.Cost
	put(1)
	h.Write([]byte(c.Objective))
	for _, v := range []int64{c.Shifts, c.Reads, c.Writes} {
		put(uint64(v))
	}
	for _, f := range []float64{c.FaultShifts, c.RuntimeNS, c.DynamicPJ, c.LeakagePJ, c.Scalar} {
		put(math.Float64bits(f))
	}
}

// goldenStream runs one streamed placement of s and returns its result.
func goldenStream(t *testing.T, s *trace.Sequence, numVars, q, window int, st StrategyID) *StreamResult {
	t.Helper()
	var opts Options
	if params, err := energy.ForDBCs(q); err == nil {
		m, err := NewCostModel(ObjectiveEnergy, params, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts.Cost = m
	}
	res, err := PlaceStreamed(context.Background(), trace.NewSliceReader(s), StreamConfig{
		NumVars: numVars, DBCs: q, Window: window, Strategy: st,
		Registry: testRegistry, Options: opts,
	})
	if err != nil {
		t.Fatalf("%s q=%d window=%d: %v", st, q, window, err)
	}
	if res.Shifts != res.WindowShifts+res.MigrationShifts || res.Accesses != int64(s.Len()) {
		t.Fatalf("%s q=%d window=%d: accounting %+v", st, q, window, res)
	}
	return res
}

// TestPlaceStreamedGolden pins the stitched accounting of PlaceStreamed
// bit for bit: an FNV-64a digest of every StreamResult field over a grid
// of CI-shape synthetic streams (the big-trace job's loop shape), window
// lengths from one access to longer than the stream, q ∈ {1, 2, 8}, the
// three constructive heuristics and DMA-2opt (which places through
// Strategy.Place), plus three hand-built streams aimed at the
// compaction: a variable absent from the window in between, a sparse
// universe of 2^31 variables, and ids that share their low bits.
func TestPlaceStreamedGolden(t *testing.T) {
	const (
		wantCells  = 120
		wantDigest = uint64(0xac57ee9d944b469e)
	)
	h := fnv.New64a()
	cells := 0
	for _, tc := range []trace.SynthConfig{
		{Vars: 512, Accesses: 20000, Seed: 1001, RepMin: 32, RepMax: 256, ScatterLen: 1},
		{Vars: 48, Accesses: 20000, Seed: 1002, RepMin: 32, RepMax: 256, ScatterLen: 1},
	} {
		s, err := tc.Sequence()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []StrategyID{StrategyAFDOFU, StrategyDMAOFU, StrategyDMASR, StrategyDMATwoOpt} {
			for _, q := range []int{1, 2, 8} {
				for _, window := range []int{1, 7, 4096, 1409, 1 << 30} {
					digestStreamResult(h, goldenStream(t, s, tc.Vars, q, window, st))
					cells++
				}
			}
		}
	}

	// Variables 0 and 1 are in windows 0 and 2 but not in window 1, and
	// swap offsets between them: neither was resident in the window just
	// before, so both are reloaded, never migrated.
	gap := trace.NewSequence(0, 1, 2, 3, 1, 0)
	res := goldenStream(t, gap, 4, 1, 2, StrategyDMAOFU)
	if res.MigratedVars != 0 || res.MigrationShifts != 0 {
		t.Fatalf("variable absent from the previous window was migrated: %+v", res)
	}
	digestStreamResult(h, res)

	// A sparse universe declared at the binary header's cap.
	const top = 1 << 31
	sparse := trace.NewSequence(top-1, 0, top-2, top-1, 1<<30, 0, top-2, 7, top-1, 1<<30, 7, 0)
	for _, window := range []int{3, 5, 1 << 30} {
		digestStreamResult(h, goldenStream(t, sparse, top, 2, window, StrategyDMASR))
	}

	// Ids equal modulo 2^16 (and every smaller power of two).
	var ids []int
	for rep := 0; rep < 6; rep++ {
		for k := 0; k < 40; k++ {
			ids = append(ids, ((k*7+rep)%40)<<16)
		}
	}
	coll := trace.NewSequence(ids...)
	for _, window := range []int{11, 64, 1 << 30} {
		digestStreamResult(h, goldenStream(t, coll, 40<<16, 8, window, StrategyDMAOFU))
	}

	if got := h.Sum64(); cells != wantCells || got != wantDigest {
		t.Fatalf("%d grid cells, digest %#x; want %d cells, digest %#x", cells, got, wantCells, wantDigest)
	}
}
