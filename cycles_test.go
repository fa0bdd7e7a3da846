package racetrack_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	racetrack "repro"
)

// digestCycleStats feeds every CycleStats field, and the utilization
// derived from them, into h.
func digestCycleStats(h hash.Hash64, st racetrack.CycleStats) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(st.Cycles))
	put(uint64(st.Counts.Shifts))
	put(uint64(st.Counts.Reads))
	put(uint64(st.Counts.Writes))
	put(uint64(st.QueueWaitCycles))
	put(uint64(len(st.BusyCycles)))
	for _, c := range st.BusyCycles {
		put(uint64(c))
	}
	put(uint64(len(st.PerBankRequests)))
	for _, n := range st.PerBankRequests {
		put(uint64(n))
	}
	put(uint64(st.MaxQueueDepth))
	put(math.Float64bits(st.Utilization()))
}

// TestCycleModelGolden pins the cycle model's statistics over the bundled
// OffsetStone suite at 2 GHz: every Table I DBC count, AFD-OFU and DMA-SR
// placements, and three runs per placement — serialized and open-loop on
// the stock single-bank device, and open-loop with one bank per DBC.
// Only placements whose fullest DBC fits the track are run. Each run gets
// a fresh simulator.
func TestCycleModelGolden(t *testing.T) {
	const (
		wantCells  = 4818
		wantDigest = uint64(0xeb4b9b7a8ed99ddd)
	)
	lab, err := racetrack.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	h := fnv.New64a()
	cells := 0
	for _, name := range racetrack.BenchmarkNames() {
		b, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range racetrack.TableIDBCCounts() {
			dev, err := racetrack.TableIDevice(q)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []racetrack.Strategy{racetrack.AFDOFU, racetrack.DMASR} {
				for i, seq := range b.Sequences {
					res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: st, DBCs: q})
					if err != nil {
						t.Fatalf("%s/%d %s q=%d: %v", name, i, st, q, err)
					}
					if res.Placement.MaxDBCLen() > dev.Geometry.WordsPerDBC() {
						continue
					}
					for mode := 0; mode < 3; mode++ {
						var cs *racetrack.CycleSimulator
						if mode < 2 {
							cs, err = racetrack.NewCycleSimulator(q, 2.0)
						} else {
							cs, err = racetrack.NewBankedCycleSimulator(q, q, 2.0)
						}
						if err != nil {
							t.Fatal(err)
						}
						stats, err := racetrack.SimulateCycles(cs, seq, res.Placement, mode == 0)
						if err != nil {
							t.Fatalf("%s/%d %s q=%d mode %d: %v", name, i, st, q, mode, err)
						}
						digestCycleStats(h, stats)
						cells++
					}
				}
			}
		}
	}
	if got := h.Sum64(); cells != wantCells || got != wantDigest {
		t.Fatalf("%d cells, digest %#x; want %d cells, digest %#x", cells, got, wantCells, wantDigest)
	}
}

// cycleTimes returns the whole-cycle read, write and shift times of the
// Table I device with q DBCs at the given clock: each latency rounded up,
// at least one cycle.
func cycleTimes(t *testing.T, q int, clockGHz float64) (read, write, shift int64) {
	t.Helper()
	dev, err := racetrack.TableIDevice(q)
	if err != nil {
		t.Fatal(err)
	}
	cycles := func(ns float64) int64 { return max(int64(math.Ceil(ns*clockGHz)), 1) }
	return cycles(dev.Params.ReadLatencyNS), cycles(dev.Params.WriteLatencyNS), cycles(dev.Params.ShiftLatencyNS)
}

// A serialized run issues each access when the previous one completes,
// so its Cycles is the sum of the per-access times on any bank split.
func TestSimulateCyclesSerializedIsEventSum(t *testing.T) {
	ab, err := racetrack.ParseSequence("a b")
	if err != nil {
		t.Fatal(err)
	}
	abcd, err := racetrack.ParseSequence("a b c d a b c d")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		q    int
		seq  *racetrack.Sequence
		p    *racetrack.Placement
		want int64
	}{
		{"a on bank 1", 2, ab, &racetrack.Placement{DBC: [][]int{{1}, {0}}}, 2},
		{"a on bank 0", 2, ab, &racetrack.Placement{DBC: [][]int{{0}, {1}}}, 2},
		{"one variable per bank", 4, abcd, &racetrack.Placement{DBC: [][]int{{0}, {1}, {2}, {3}}}, 8},
	} {
		cs, err := racetrack.NewBankedCycleSimulator(tc.q, tc.q, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		st, err := racetrack.SimulateCycles(cs, tc.seq, tc.p, true)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cycles != tc.want {
			t.Errorf("%s: %d cycles for %d one-cycle reads", tc.name, st.Cycles, tc.want)
		}
	}

	lab, err := racetrack.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, name := range []string{"adpcm", "gsm", "jpeg", "mpeg2"} {
		b, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range racetrack.TableIDBCCounts() {
			read, write, shift := cycleTimes(t, q, 2.0)
			placed, err := lab.PlaceBenchmark(ctx, b, racetrack.PlaceOptions{Strategy: racetrack.DMASR, DBCs: q})
			if err != nil {
				t.Fatal(err)
			}
			for _, banks := range []int{1, q} {
				cs, err := racetrack.NewBankedCycleSimulator(q, banks, 2.0)
				if err != nil {
					t.Fatal(err)
				}
				for i, seq := range b.Sequences {
					st, err := racetrack.SimulateCycles(cs, seq, placed.Results[i].Placement, true)
					if err != nil {
						t.Fatalf("%s/%d q=%d banks=%d: %v", name, i, q, banks, err)
					}
					c := st.Counts
					if want := c.Reads*read + c.Writes*write + c.Shifts*shift; st.Cycles != want {
						t.Errorf("%s/%d q=%d banks=%d: serialized %d cycles, event sum %d",
							name, i, q, banks, st.Cycles, want)
					}
				}
			}
		}
	}
}

// A simulator carries nothing from one call to the next: replaying a
// placement twice on one simulator gives equal stats, and its counts are
// Lab.Simulate's.
func TestSimulateCyclesIsStateless(t *testing.T) {
	lab, err := racetrack.New(racetrack.WithDevice(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b, err := racetrack.GenerateBenchmark("adpcm")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := racetrack.NewCycleSimulator(4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range b.Sequences {
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{Strategy: racetrack.DMASR})
		if err != nil {
			t.Fatal(err)
		}
		want, err := lab.Simulate(ctx, seq, res.Placement)
		if err != nil {
			t.Fatal(err)
		}
		first, err := racetrack.SimulateCycles(cs, seq, res.Placement, true)
		if err != nil {
			t.Fatal(err)
		}
		second, err := racetrack.SimulateCycles(cs, seq, res.Placement, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Errorf("sequence %d: second call %+v, first %+v", i, second, first)
		}
		if first.Counts != want.Counts {
			t.Errorf("sequence %d: cycle counts %+v, Lab.Simulate %+v", i, first.Counts, want.Counts)
		}
	}
}

// SimulateCycles accepts every placement Lab.SimulateOn accepts,
// including DBCs fuller than the track, and counts the same events.
func TestSimulateCyclesAcceptsWhatLabAccepts(t *testing.T) {
	lab, err := racetrack.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	strategies := []racetrack.Strategy{racetrack.AFDOFU, racetrack.DMAOFU, racetrack.DMAChen, racetrack.DMASR, racetrack.DMA2Opt}
	for _, q := range racetrack.TableIDBCCounts() {
		dev, err := racetrack.TableIDevice(q)
		if err != nil {
			t.Fatal(err)
		}
		rejected, cells := 0, 0
		for _, name := range racetrack.BenchmarkNames() {
			b, err := racetrack.GenerateBenchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range strategies {
				placed, err := lab.PlaceBenchmark(ctx, b, racetrack.PlaceOptions{Strategy: st, DBCs: q})
				if err != nil {
					t.Fatal(err)
				}
				for i, seq := range b.Sequences {
					p := placed.Results[i].Placement
					want, err := lab.SimulateOn(ctx, dev, seq, p)
					if err != nil {
						t.Fatal(err)
					}
					cs, err := racetrack.NewCycleSimulator(q, 1.0)
					if err != nil {
						t.Fatal(err)
					}
					cells++
					got, err := racetrack.SimulateCycles(cs, seq, p, true)
					if err != nil {
						rejected++
						continue
					}
					if got.Counts != want.Counts {
						t.Errorf("%s/%d %s q=%d: cycle counts %+v, Lab.SimulateOn %+v", name, i, st, q, got.Counts, want.Counts)
					}
				}
			}
		}
		if rejected != 0 {
			t.Errorf("q=%d: %d of %d placements rejected", q, rejected, cells)
		}
	}
}
