package placement

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/offsetstone"
)

// TestDMATwoOptGolden freezes DMA-2opt, the other one-shot heuristics
// it builds on (DMA with OFU, Chen or ShiftsReduce), the AFD-OFU
// baseline and a short random walk on the whole OffsetStone suite at
// every Table I DBC count: an FNV-64a digest of every DBC order each
// strategy returns through Registry.Place, and the total shifts.
// DMA-2opt and RW run twice, once with a cost kernel per sequence, and
// both runs must give the same numbers; RW runs once more under four
// ports. The 2-opt polish accepts the first improving move, so a move
// priced differently, even by one shift, moves the trajectory and shows
// up here; so does any change to Algorithm 1's disjoint set, a
// ShiftsReduce pick or tie-break, the order in which Chen accepts edges,
// or a random-walk candidate priced differently below its bound. Every
// case carries the same 50-iteration RW budget, which the other
// strategies ignore.
func TestDMATwoOptGolden(t *testing.T) {
	cases := []struct {
		name       string
		id         StrategyID
		kernel     bool
		ports      int
		wantDigest uint64
		wantShifts int64
	}{
		{"AFD-OFU", StrategyAFDOFU, false, 0, 0xf7b01ef1612d7315, 364533},
		{"DMA-OFU", StrategyDMAOFU, false, 0, 0xb06fde13e94cdd5, 216744},
		{"DMA-Chen", StrategyDMAChen, false, 0, 0xd8535ff11607a1a9, 162930},
		{"DMA-SR", StrategyDMASR, false, 0, 0xf785b85d4789f7e9, 118168},
		{"DMA-2opt", StrategyDMATwoOpt, false, 0, 0xcb0e2e84094889f1, 102363},
		{"DMA-2opt-kernel", StrategyDMATwoOpt, true, 0, 0xcb0e2e84094889f1, 102363},
		{"RW", StrategyRW, false, 0, 0xa4d2c719821d0275, 1290655},
		{"RW-kernel", StrategyRW, true, 0, 0xa4d2c719821d0275, 1290655},
		{"RW-4ports", StrategyRW, false, 4, 0xcf12e0cc6b0925cd, 967537},
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
					opts := Options{RW: RWConfig{Iterations: 50, Seed: 1}, Ports: tc.ports}
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
