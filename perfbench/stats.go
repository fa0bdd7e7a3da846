package main

import (
	"fmt"
	"math"
	"sort"
)

// minPercentileSamples is the fewest samples a reported percentile may
// rest on. At 100 samples the 90th percentile still has ten samples
// beyond it; p99 would need 1000 and did not repeat between runs, so
// the benchmark reports p50 and p90 only.
const minPercentileSamples = 100

// percentile returns the p-th percentile (0 < p < 1) of xs by linear
// interpolation between the closest ranks. It refuses to answer from
// fewer than minPercentileSamples samples. xs is not modified.
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) < minPercentileSamples {
		return 0, fmt.Errorf("percentile p%g from %d samples: need at least %d", p*100, len(xs), minPercentileSamples)
	}
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %g outside (0,1)", p)
	}
	return quantile(sorted(xs), p), nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return quantile(sorted(xs), 0.5)
}

// quantile interpolates the p-quantile of an ascending slice.
func quantile(s []float64, p float64) float64 {
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// relDiff is |a-b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return math.Abs(a-b) / m
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reaches reads as zero work, not as NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
