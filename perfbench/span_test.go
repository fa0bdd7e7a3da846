package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// fakeTracer returns a tracer whose clock reads the next value of ticks
// (in milliseconds) on every span boundary.
func fakeTracer(ticks ...int) *tracer {
	tr := newTracer()
	i := 0
	tr.now = func() time.Duration {
		d := time.Duration(ticks[i]) * time.Millisecond
		i++
		return d
	}
	return tr
}

// The tree: job [0,100] { decode [10,40] { fingerprint [15,25] }, place [50,90] }.
func syntheticTree() *tracer {
	tr := fakeTracer(0, 10, 15, 25, 40, 50, 90, 100)
	tr.startJob("job")
	tr.begin("decode")
	_ = tr.stage("fingerprint", func() error { return nil })
	tr.end()
	_ = tr.stage("place", func() error { return nil })
	tr.end()
	return tr
}

func TestSelfTimes(t *testing.T) {
	tr := syntheticTree()
	if len(tr.open) != 0 {
		t.Fatalf("%d spans left open", len(tr.open))
	}
	p := profileOf(tr.spans, 0)
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for name, want := range map[string]float64{"decode": 20, "fingerprint": 10, "place": 40} {
		if got := ms(p.selfNS[name]); got != want {
			t.Errorf("self(%s) = %v ms, want %v", name, got, want)
		}
	}
	// The root's own 30 ms are the replay's glue, outside every stage.
	if ms(p.stageNS) != 70 || ms(p.rootNS) != 100 {
		t.Errorf("stage sum %v ms, root %v ms; want 70 and 100", ms(p.stageNS), ms(p.rootNS))
	}
	for _, s := range tr.spans {
		if s.Job != 1 {
			t.Errorf("span %s has job %d, want 1", s.Name, s.Job)
		}
	}
	// A profile from a later index ignores earlier spans.
	if q := profileOf(tr.spans, len(tr.spans)); q.rootNS != 0 || len(q.selfNS) != 0 {
		t.Error("profile of no spans is not empty")
	}
}

func TestResidualArithmetic(t *testing.T) {
	tr := syntheticTree()
	prof := profileOf(tr.spans, 0)
	// Untraced, the same job took 120 ms in two samples.
	plain := []measured{{passResult: &passResult{latMS: []float64{50, 70}, counts: map[string]float64{}}}}
	traced := []measured{{passResult: &passResult{latMS: []float64{100}, counts: map[string]float64{}}, prof: &prof}}
	var out bytes.Buffer
	res := perLayer("files", plain, traced, &out)
	want := map[string]float64{
		"bench.untraced_e2e_ms":        120,
		"bench.traced_e2e_ms":          100,
		"bench.stage_sum_ms":           70,
		"racetrack.glue.self_ms":       50, // untraced minus the stage sum
		"bench.residual_ratio":         50.0 / 120,
		"bench.tracing_overhead_ratio": 100.0/120 - 1,
		"server.glue.self_ms":          0,
	}
	for k, v := range want {
		if got := res.Metrics[k].Value; math.Abs(got-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(layerMetrics))
	}
	if s := perLayer("serve", plain, traced, &out); s.Metrics["server.glue.self_ms"].Value != 50 || s.Metrics["racetrack.glue.self_ms"].Value != 0 {
		t.Error("serve's residual belongs to the server layer")
	}
}
