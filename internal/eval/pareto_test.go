package eval

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// paretoCloud builds a deterministic synthetic point cloud for the
// dominance property tests: coordinates drawn from a small grid so
// ties, strict dominance and incomparability all occur.
func paretoCloud(seed int64, n int) []ParetoPoint {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]ParetoPoint, n)
	for i := range pts {
		pts[i] = ParetoPoint{
			DBCs:      2 << (i % 4),
			RuntimeNS: float64(rng.Intn(6)),
			EnergyPJ:  float64(rng.Intn(6)),
			AreaMM2:   float64(rng.Intn(4)),
		}
	}
	return pts
}

// TestDominatesProperties pins the order-theoretic properties of the
// dominance relation: irreflexivity, asymmetry, and transitivity.
func TestDominatesProperties(t *testing.T) {
	pts := paretoCloud(11, 40)
	for i, a := range pts {
		if Dominates(a, a) {
			t.Fatalf("point %d dominates itself: %+v", i, a)
		}
		for j, b := range pts {
			if Dominates(a, b) && Dominates(b, a) {
				t.Fatalf("mutual dominance between %d and %d: %+v / %+v", i, j, a, b)
			}
			for k, c := range pts {
				if Dominates(a, b) && Dominates(b, c) && !Dominates(a, c) {
					t.Fatalf("dominance not transitive over %d, %d, %d", i, j, k)
				}
			}
		}
	}
}

// TestMarkParetoFrontMinimality pins MarkPareto's contract: a point is
// flagged iff some input point dominates it, the returned front lists
// exactly the unflagged points, the front is minimal (no front point
// dominates another), and it is complete (every dominated point is
// dominated by some front point — the relation is a strict partial
// order on a finite set, so maximal elements cover it).
func TestMarkParetoFrontMinimality(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		pts := paretoCloud(seed, 25)
		front := MarkPareto(pts)
		inFront := make(map[int]bool, len(front))
		for _, i := range front {
			inFront[i] = true
		}
		for i := range pts {
			dominated := false
			for j := range pts {
				if i != j && Dominates(pts[j], pts[i]) {
					dominated = true
					break
				}
			}
			if pts[i].Dominated != dominated {
				t.Fatalf("seed %d point %d: Dominated=%v, brute force %v", seed, i, pts[i].Dominated, dominated)
			}
			if inFront[i] == dominated {
				t.Fatalf("seed %d point %d: front membership disagrees with flag", seed, i)
			}
			if !dominated {
				continue
			}
			// Completeness: some *front* point dominates it.
			covered := false
			for _, j := range front {
				if Dominates(pts[j], pts[i]) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("seed %d point %d dominated but not covered by the front", seed, i)
			}
		}
		// Minimality: front points are mutually non-dominating.
		for _, i := range front {
			for _, j := range front {
				if i != j && Dominates(pts[i], pts[j]) {
					t.Fatalf("seed %d: front point %d dominates front point %d", seed, i, j)
				}
			}
		}
	}
}

// paretoTestConfig is a tiny sweep configuration that keeps the
// end-to-end test fast: one benchmark, short sequences, two Table I
// DBC counts.
func paretoTestConfig() Config {
	cfg := quickConfig()
	cfg.Benchmarks = []string{"adpcm"}
	cfg.MaxSequences = 2
	cfg.MaxSequenceLen = 400
	cfg.DBCCounts = []int{2, 4}
	return cfg
}

// TestParetoSweep runs the driver end to end and checks structure:
// deterministic across runs and worker counts, points in sweep order,
// dominance flags consistent, the area axis matching Table I, and the
// fault-rate axis only inflating runtime/energy (never shifts).
func TestParetoSweep(t *testing.T) {
	cfg := paretoTestConfig()
	ctx := context.Background()
	ports := []int{1, 2}
	rates := []float64{0, 0.1}
	res, err := Pareto(ctx, cfg, ports, rates)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(cfg.DBCCounts) * len(ports) * len(rates); len(res.Points) != want {
		t.Fatalf("%d points, want %d", len(res.Points), want)
	}
	// Sweep order: (DBCs, Ports, FaultRate) in the configured order.
	i := 0
	for _, q := range cfg.DBCCounts {
		for _, p := range ports {
			var shifts int64 = -1
			for _, r := range rates {
				pt := res.Points[i]
				if pt.DBCs != q || pt.Ports != p || pt.FaultRate != r {
					t.Fatalf("point %d is (%d,%d,%g), want (%d,%d,%g)", i, pt.DBCs, pt.Ports, pt.FaultRate, q, p, r)
				}
				if pt.Shifts <= 0 || pt.Reads <= 0 || pt.Writes <= 0 {
					t.Fatalf("point %d has empty tally: %+v", i, pt)
				}
				// Fault rates reuse the geometry's placements: the
				// nominal tally must not move along the rate axis.
				if shifts == -1 {
					shifts = pt.Shifts
				} else if pt.Shifts != shifts {
					t.Fatalf("fault rate changed the shift count: %d vs %d", pt.Shifts, shifts)
				}
				i++
			}
		}
	}
	// Higher fault rate strictly inflates runtime and energy.
	for i := 0; i+1 < len(res.Points); i += 2 {
		clean, faulty := res.Points[i], res.Points[i+1]
		if faulty.RuntimeNS <= clean.RuntimeNS || faulty.EnergyPJ <= clean.EnergyPJ {
			t.Errorf("fault rate did not inflate point %d: %+v vs %+v", i, clean, faulty)
		}
		if faulty.AreaMM2 != clean.AreaMM2 {
			t.Errorf("fault rate moved the area: %+v vs %+v", clean, faulty)
		}
	}
	// Dominance flags match a brute-force recomputation.
	pts := append([]ParetoPoint(nil), res.Points...)
	if front := MarkPareto(pts); !reflect.DeepEqual(front, res.Front) || !reflect.DeepEqual(pts, res.Points) {
		t.Error("result's dominance flags disagree with MarkPareto")
	}
	if len(res.Front) == 0 {
		t.Fatal("empty Pareto front")
	}

	// Determinism: same config, parallel workers, identical dataset.
	cfg2 := cfg
	cfg2.Parallel = 4
	res2, err := Pareto(ctx, cfg2, ports, rates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, res2.Points) {
		t.Error("sweep is not deterministic across worker counts")
	}

	// Render and CSV cover every point.
	if out := res.Render(); strings.Count(out, "\n") < len(res.Points)+2 {
		t.Errorf("render too short:\n%s", out)
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(res.Points)+1 {
		t.Errorf("CSV has %d lines for %d points", lines, len(res.Points))
	}
}

// TestParetoValidation pins the driver's input validation.
func TestParetoValidation(t *testing.T) {
	cfg := paretoTestConfig()
	ctx := context.Background()
	if _, err := Pareto(ctx, cfg, []int{0}, nil); err == nil {
		t.Error("port count 0 accepted")
	}
	if _, err := Pareto(ctx, cfg, nil, []float64{1}); err == nil {
		t.Error("fault rate 1 accepted")
	}
	if _, err := Pareto(ctx, cfg, nil, []float64{-0.5}); err == nil {
		t.Error("negative fault rate accepted")
	}
	bad := cfg
	bad.DBCCounts = nil
	if _, err := Pareto(ctx, bad, nil, nil); err != ErrNoDBCCounts {
		t.Errorf("empty DBC counts: %v", err)
	}
	bad = cfg
	bad.DBCCounts = []int{3}
	if _, err := Pareto(ctx, bad, nil, nil); err == nil {
		t.Error("non-Table-I DBC count accepted (pricing has no constants)")
	}
}

// BenchmarkPareto measures the dominance pass over a realistic point
// cloud — the post-placement cost of the sweep (placement itself is
// benchmarked by the strategy benchmarks).
func BenchmarkPareto(b *testing.B) {
	pts := paretoCloud(7, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MarkPareto(pts)
	}
}
