package racetrack_test

import (
	"context"
	"testing"

	racetrack "repro"
	"repro/internal/placement"
)

// Integration: compile a program with the frontend, place each function
// with every strategy on every Table I configuration, and cross-check the
// analytic simulator against the cycle-accurate model on every
// combination.
func TestFullPipelineAcrossConfigs(t *testing.T) {
	bench, err := racetrack.CompileTrace("integration", `
func hot
  loop 12
    a = b + c
    d = a * b
  end
  loop 9
    e = f + g
    h = e * f
  end
end
func phased
  loop 6
    p0 += q0
  end
  loop 6
    p1 += q1
  end
  loop 6
    p2 += q2
  end
end
`)
	if err != nil {
		t.Fatal(err)
	}

	opts := racetrack.PlaceOptions{
		GA: placement.GAConfig{Mu: 12, Lambda: 12, Generations: 8, TournamentK: 4,
			MutationRate: 0.5, MoveWeight: 10, TransposeWeight: 10, PermuteWeight: 3, Seed: 1},
		RW: placement.RWConfig{Iterations: 80, Seed: 1},
	}

	ctx := context.Background()
	for _, dbcs := range racetrack.TableIDBCCounts() {
		lab, err := racetrack.New(racetrack.WithDevice(dbcs))
		if err != nil {
			t.Fatal(err)
		}
		for _, strategy := range racetrack.Strategies() {
			for fi, seq := range bench.Sequences {
				o := opts
				o.Strategy = strategy
				res, err := lab.Place(ctx, seq, o)
				if err != nil {
					t.Fatalf("%s q=%d func %d: %v", strategy, dbcs, fi, err)
				}
				if err := res.Placement.Validate(seq, 0); err != nil {
					t.Fatalf("%s q=%d func %d: invalid placement: %v", strategy, dbcs, fi, err)
				}

				// Analytic simulation must agree with the placement cost.
				sr, err := lab.Simulate(ctx, seq, res.Placement)
				if err != nil {
					t.Fatalf("%s q=%d func %d: simulate: %v", strategy, dbcs, fi, err)
				}
				if sr.Counts.Shifts != res.Shifts {
					t.Fatalf("%s q=%d func %d: analytic shifts %d != cost model %d",
						strategy, dbcs, fi, sr.Counts.Shifts, res.Shifts)
				}

				// Cycle-accurate serialized run must agree on counts.
				cs, err := racetrack.NewCycleSimulator(dbcs, 1.0)
				if err != nil {
					t.Fatal(err)
				}
				cyc, err := racetrack.SimulateCycles(cs, seq, res.Placement, true)
				if err != nil {
					t.Fatalf("%s q=%d func %d: cycles: %v", strategy, dbcs, fi, err)
				}
				if cyc.Counts != sr.Counts {
					t.Fatalf("%s q=%d func %d: cycle counts %+v != analytic %+v",
						strategy, dbcs, fi, cyc.Counts, sr.Counts)
				}
			}
		}
	}
}

// Integration: the bundled suite runs under every heuristic on every
// configuration without errors, and DMA-SR never loses to AFD-OFU in
// total over the whole suite.
func TestSuiteWideSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide pass is slow")
	}
	lab, err := racetrack.New()
	if err != nil {
		t.Fatal(err)
	}
	totals := map[racetrack.Strategy]int64{}
	for _, name := range racetrack.BenchmarkNames() {
		bench, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range bench.Sequences {
			for _, strategy := range []racetrack.Strategy{
				racetrack.AFDOFU, racetrack.DMAOFU, racetrack.DMAChen, racetrack.DMASR,
			} {
				res, err := lab.Place(context.Background(), seq, racetrack.PlaceOptions{
					Strategy: strategy, DBCs: 4,
				})
				if err != nil {
					t.Fatalf("%s/%s: %v", name, strategy, err)
				}
				if err := res.Placement.Validate(seq, 0); err != nil {
					t.Fatalf("%s/%s: invalid placement: %v", name, strategy, err)
				}
				totals[strategy] += res.Shifts
			}
		}
	}
	if totals[racetrack.DMASR] >= totals[racetrack.AFDOFU] {
		t.Errorf("suite-wide DMA-SR (%d) did not beat AFD-OFU (%d)",
			totals[racetrack.DMASR], totals[racetrack.AFDOFU])
	}
	if totals[racetrack.DMASR] > totals[racetrack.DMAOFU] {
		t.Errorf("DMA-SR (%d) worse than DMA-OFU (%d) over the suite",
			totals[racetrack.DMASR], totals[racetrack.DMAOFU])
	}
}

// Integration: capacity-constrained placement + capacity-enforcing
// simulation round-trip on the 16-DBC device (64 words per DBC).
func TestCapacityEnforcedPipeline(t *testing.T) {
	bench, err := racetrack.GenerateBenchmark("8051")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := racetrack.TableIDevice(16)
	if err != nil {
		t.Fatal(err)
	}
	dev.EnforceCapacity = true
	capacity := dev.Geometry.WordsPerDBC()
	lab, err := racetrack.New(racetrack.WithDevice(16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seq := range bench.Sequences {
		if seq.NumVars() > 16*capacity {
			continue // cannot fit at all
		}
		res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{
			Strategy: racetrack.DMASR, DBCs: 16, Capacity: capacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Placement.Validate(seq, capacity); err != nil {
			t.Fatalf("capacity violated: %v", err)
		}
		if _, err := lab.SimulateOn(ctx, dev, seq, res.Placement); err != nil {
			t.Fatalf("capacity-enforcing simulation rejected placement: %v", err)
		}
	}
}
