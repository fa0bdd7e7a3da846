package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending: percentile must sort a copy
	}
	return xs
}

func TestPercentileNeedsEnoughSamples(t *testing.T) {
	for _, n := range []int{0, 1, 10, minPercentileSamples - 1} {
		if _, err := percentile(seq(n), 0.9); err == nil {
			t.Errorf("p90 of %d samples: want an error", n)
		}
		if _, err := percentile(seq(n), 0.5); err == nil {
			t.Errorf("p50 of %d samples: want an error", n)
		}
	}
	xs := seq(minPercentileSamples)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// 1..100 interpolated at rank 0.9*99 = 89.1: between 90 and 91.
	if math.Abs(p90-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", p90)
	}
	if p50, _ := percentile(xs, 0.5); math.Abs(p50-50.5) > 1e-9 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", p50)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if _, err := percentile(xs, 1); err == nil {
		t.Error("p100: want an error")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median(3,1,2) = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", m)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestRatioAndRelDiff(t *testing.T) {
	if ratio(1, 0) != 0 || ratio(3, 4) != 0.75 {
		t.Error("ratio")
	}
	if relDiff(0, 0) != 0 || relDiff(100, 101) != 1.0/101 {
		t.Error("relDiff")
	}
}
