package placement

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/offsetstone"
)

// TestDMATwoOptGolden freezes DMA-2opt on the whole OffsetStone suite at
// every Table I DBC count: an FNV-64a digest of every DBC order it
// returns, and the total shifts. The 2-opt polish accepts the first
// improving move, so a move priced differently, even by one shift,
// moves the trajectory and shows up here. A change to how the polish
// prices its moves must leave both numbers unchanged.
func TestDMATwoOptGolden(t *testing.T) {
	const (
		wantDigest = 0xcb0e2e84094889f1
		wantShifts = 102363
	)
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	var shifts int64
	placed := 0
	for _, b := range offsetstone.Suite() {
		for _, s := range b.Sequences {
			for _, q := range []int{2, 4, 8, 16} {
				p, c, err := PlaceDMATwoOpt(s, q, Options{})
				if err != nil {
					t.Fatalf("%s q=%d: %v", b.Name, q, err)
				}
				for _, row := range p.DBC {
					put(int64(len(row)))
					for _, v := range row {
						put(int64(v))
					}
				}
				put(-1)
				shifts += c
				placed++
			}
		}
	}
	if placed != 4*205 {
		t.Fatalf("placed %d (sequence, DBC count) pairs, want %d", placed, 4*205)
	}
	if got := h.Sum64(); got != wantDigest || shifts != wantShifts {
		t.Errorf("got digest %#x, %d shifts; want %#x, %d shifts", got, shifts, uint64(wantDigest), wantShifts)
	}
}
