package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	racetrack "repro"
)

// tinyScale shrinks every workload to a few jobs so a run takes well
// under a second; the measurement loop still collects the
// minPercentileSamples samples the percentiles need.
const tinyScale = 0.02

func tinyRun(t *testing.T, workload string, seed int64, traced bool) (*result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.001, trace: traced, workDir: t.TempDir(), setups: 2, scale: tinyScale}
	var out bytes.Buffer
	res, err := execute(context.Background(), cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < minPercentileSamples {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", workload, res.Correct, res.Attempted, res.Failed, out.String())
	}
	return res, out.String()
}

// benchmarkJSON is the repository's benchmark declaration.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res, out := tinyRun(t, w, 1, false)
			if len(res.Metrics) != len(decl.EndToEnd) {
				t.Errorf("%d end-to-end metrics, BENCHMARK.json declares %d", len(res.Metrics), len(decl.EndToEnd))
			}
			for _, m := range decl.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.Name, got, m.Unit)
				}
			}
			if !strings.Contains(out, `"gomaxprocs"`) || !strings.Contains(out, `"seed":1`) {
				t.Errorf("no environment block in the output:\n%s", out)
			}

			traced, _ := tinyRun(t, w, 1, true)
			if len(traced.Metrics) != len(decl.PerLayer) {
				t.Errorf("%d per-layer metrics, BENCHMARK.json declares %d", len(traced.Metrics), len(decl.PerLayer))
			}
			for _, m := range decl.PerLayer {
				if got, ok := traced.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			if traced.Metrics["bench.stage_sum_ms"].Value <= 0 {
				t.Error("the traced run recorded no stage time")
			}
		})
	}
}

// TestSeedChangesOnlyTheSchedule: the seed permutes job order and the
// request schedule; trace content, and so every simulated total, is the
// same for every seed.
func TestSeedChangesOnlyTheSchedule(t *testing.T) {
	for _, w := range workloadNames {
		a, _ := tinyRun(t, w, 1, false)
		b, _ := tinyRun(t, w, 2, false)
		for _, m := range []string{"shifts", "sim_energy_uj", "sim_time_us"} {
			if a.Metrics[m].Value != b.Metrics[m].Value {
				t.Errorf("%s: %s differs between seeds: %v vs %v", w, m, a.Metrics[m].Value, b.Metrics[m].Value)
			}
		}
	}
	if reflect.DeepEqual(passRNG(1, 0).Perm(50), passRNG(2, 0).Perm(50)) {
		t.Error("seeds 1 and 2 give the same job order")
	}
	if !reflect.DeepEqual(passRNG(7, 3).Perm(50), passRNG(7, 3).Perm(50)) {
		t.Error("one seed gives two job orders")
	}

	// The serve schedule: the same requests, in another order.
	var w serveWorkload
	for k := 0; k < 10; k++ {
		w.keys = append(w.keys, serveKey{})
	}
	s1, s2 := w.schedule(passRNG(1, 0)), w.schedule(passRNG(2, 0))
	if reflect.DeepEqual(s1, s2) {
		t.Error("seeds 1 and 2 give the same request schedule")
	}
	for c := range s1 {
		x, y := append([]int(nil), s1[c]...), append([]int(nil), s2[c]...)
		sort.Ints(x)
		sort.Ints(y)
		if !reflect.DeepEqual(x, y) || len(x) != 5*(warmRepeats+1) {
			t.Errorf("client %d sends %v under seed 1 but %v under seed 2", c, x, y)
		}
	}
}

// TestTraceFingerprints: the stream traces are fixed by their generator
// seeds, and the binary file's verified fingerprint is the fingerprint
// of the materialized sequence.
func TestTraceFingerprints(t *testing.T) {
	ctx := context.Background()
	a, b := &streamWorkload{scale: tinyScale}, &streamWorkload{scale: tinyScale}
	if err := a.setup(ctx, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if err := b.setup(ctx, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.fps, b.fps) || len(a.fps) == 0 {
		t.Fatalf("fingerprints %x and %x of two set-ups differ", a.fps, b.fps)
	}
	s, err := streamConfig(0, a.accesses).Sequence()
	if err != nil {
		t.Fatal(err)
	}
	if fp := s.Fingerprint(); fp != a.fps[0] {
		t.Errorf("binary trace fingerprint %016x, materialized sequence %016x", a.fps[0], fp)
	}
}

func TestServeRequestTextRoundTrips(t *testing.T) {
	benches, err := offsetStone(1)
	if err != nil {
		t.Fatal(err)
	}
	s := benches[0].Sequences[0]
	back, err := racetrack.ParseSequence(sequenceText(s))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != s.Len() || sequenceText(back) != sequenceText(s) {
		t.Error("request trace text does not round-trip")
	}
}

func TestOutputContract(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--dir", t.TempDir()}, &out, &errOut); code == 0 {
		t.Error("an unknown workload must fail")
	}
	if strings.Contains(out.String(), `"correct"`) {
		t.Error("a failed run printed a result")
	}
	if code := run([]string{"--trace", "2"}, &out, &errOut); code == 0 {
		t.Error("--trace 2 must fail")
	}
}

func TestExecEnv(t *testing.T) {
	base := []string{"LANG=C", "GODEBUG=gctrace=1"}
	for _, tc := range []struct {
		workload string
		environ  []string
		want     []string // nil: no re-execution
	}{
		{"search", base, nil},
		{"serve", base, nil},
		{"files", base, []string{"LANG=C", "GODEBUG=gctrace=1", "GOMAXPROCS=1"}},
		{"files", append([]string{"GOMAXPROCS=1"}, base...), nil},
		{"files", []string{"GOMAXPROCS=2", "GOMAXPROCS=1"}, []string{"GOMAXPROCS=1"}},
		{"stream", base, []string{"LANG=C", "GODEBUG=madvdontneed=0", "GOMAXPROCS=1"}},
		{"stream", []string{"GOMAXPROCS=1", "LANG=C", "GODEBUG=madvdontneed=0"}, nil},
		{"stream", []string{"GODEBUG=madvdontneed=0"}, []string{"GODEBUG=madvdontneed=0", "GOMAXPROCS=1"}},
	} {
		got := execEnv(tc.workload, tc.environ)
		if (got == nil) != (tc.want == nil) || strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("execEnv(%s, %q) = %q, want %q", tc.workload, tc.environ, got, tc.want)
		}
	}
}
