package placement

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/offsetstone"
)

// TestDMATwoOptGolden freezes DMA-2opt, the other one-shot heuristics
// it builds on (DMA with OFU, Chen or ShiftsReduce) and the AFD-OFU
// baseline on the whole OffsetStone suite at every Table I DBC count: an
// FNV-64a digest of every DBC order each strategy returns through
// Registry.Place, and the total shifts. DMA-2opt runs twice, once with a
// cost kernel per sequence, and both runs must give the same numbers.
// The 2-opt polish accepts the first improving move, so a move priced
// differently, even by one shift, moves the trajectory and shows up
// here; so does any change to Algorithm 1's disjoint set, a ShiftsReduce
// pick or tie-break, or the order in which Chen accepts edges.
func TestDMATwoOptGolden(t *testing.T) {
	cases := []struct {
		name       string
		id         StrategyID
		kernel     bool
		wantDigest uint64
		wantShifts int64
	}{
		{"AFD-OFU", StrategyAFDOFU, false, 0xf7b01ef1612d7315, 364533},
		{"DMA-OFU", StrategyDMAOFU, false, 0xb06fde13e94cdd5, 216744},
		{"DMA-Chen", StrategyDMAChen, false, 0xd8535ff11607a1a9, 162930},
		{"DMA-SR", StrategyDMASR, false, 0xf785b85d4789f7e9, 118168},
		{"DMA-2opt", StrategyDMATwoOpt, false, 0xcb0e2e84094889f1, 102363},
		{"DMA-2opt-kernel", StrategyDMATwoOpt, true, 0xcb0e2e84094889f1, 102363},
	}
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	suite := offsetstone.Suite()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			var buf [8]byte
			put := func(x int64) {
				binary.LittleEndian.PutUint64(buf[:], uint64(x))
				h.Write(buf[:])
			}
			var shifts int64
			placed := 0
			for _, b := range suite {
				for _, s := range b.Sequences {
					var opts Options
					if tc.kernel {
						opts.Kernel = NewCostKernel(s)
					}
					for _, q := range []int{2, 4, 8, 16} {
						p, c, err := reg.Place(tc.id, s, q, opts)
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
			if got := h.Sum64(); got != tc.wantDigest || shifts != tc.wantShifts {
				t.Errorf("got digest %#x, %d shifts; want %#x, %d shifts", got, shifts, tc.wantDigest, tc.wantShifts)
			}
		})
	}
}
