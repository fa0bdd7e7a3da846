package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro/internal/placement
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTwoOptFull-8       	       1	1219475622 ns/op	     53147 shifts
BenchmarkTwoOptDelta-8      	       1	  20335708 ns/op	     53147 shifts	    2048 B/op	      31 allocs/op
BenchmarkTwoOptDelta-8      	       1	  19000000 ns/op	     53147 shifts	    2040 B/op	      30 allocs/op
BenchmarkTwoOptDelta-8      	       1	  21000000 ns/op	     53147 shifts	    2048 B/op	      32 allocs/op
BenchmarkGALocalImprove/off-8    	       1	   7641220 ns/op	       144.0 shifts
BenchmarkGALocalImprove/on-8     	       1	   5748466 ns/op	       140.0 shifts
PASS
ok  	repro/internal/placement	1.247s
`

func TestParse(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Schema != schemaID {
		t.Errorf("schema %q", snap.Schema)
	}
	if len(snap.Benchmarks) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(snap.Benchmarks), snap.Benchmarks)
	}
	// -count aggregation keeps the minimum ns/op, B/op and allocs/op.
	delta := snap.Benchmarks["BenchmarkTwoOptDelta"]
	if delta["ns/op"] != 19000000 {
		t.Errorf("ns/op %v, want min 19000000", delta["ns/op"])
	}
	if delta["allocs/op"] != 30 {
		t.Errorf("allocs/op %v, want min 30", delta["allocs/op"])
	}
	if delta["B/op"] != 2040 {
		t.Errorf("B/op %v, want min 2040", delta["B/op"])
	}
	if delta["shifts"] != 53147 {
		t.Errorf("shifts %v, want 53147", delta["shifts"])
	}
	// Sub-benchmark names keep the slash path, lose the -GOMAXPROCS.
	if _, ok := snap.Benchmarks["BenchmarkGALocalImprove/on"]; !ok {
		t.Errorf("missing sub-benchmark: %v", snap.Benchmarks)
	}
}

// TestParseRecordsEnvironment: the goos/goarch/cpu header lines and the
// -GOMAXPROCS suffix of go test's output land in the snapshot's Env;
// fillHost completes the rest without overriding them.
func TestParseRecordsEnvironment(t *testing.T) {
	snap, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	snap.Env.fillHost()
	e := snap.Env
	if e.GOOS != "linux" || e.GOARCH != "amd64" || e.GOMAXPROCS != 8 || e.CPUModel != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("env from the bench output = %+v", e)
	}
	if e.GoVersion == "" || e.NumCPU < 1 || e.Kernel == "" {
		t.Errorf("env from the host = %+v", e)
	}
	// Without a suffix go test ran the benchmark at GOMAXPROCS=1.
	one, err := Parse(strings.NewReader("BenchmarkA \t 1 \t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if one.Env.GOMAXPROCS != 1 {
		t.Errorf("GOMAXPROCS = %d for an unsuffixed name, want 1", one.Env.GOMAXPROCS)
	}
}

// TestSnapshotEnvRoundTrip: the environment block survives writing and
// reading a snapshot, and a snapshot written before the block existed
// still loads, with Env nil.
func TestSnapshotEnvRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	snap.Env.fillHost()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "new.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Env == nil || *got.Env != *snap.Env {
		t.Errorf("env round trip: got %+v, want %+v", got.Env, snap.Env)
	}

	old := filepath.Join(dir, "old.json")
	if err := os.WriteFile(old, []byte(`{"schema": "rtm-bench/v1", "benchmarks": {"BenchmarkA": {"ns/op": 1000, "allocs/op": 4}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	prev, err := readSnapshot(old)
	if err != nil {
		t.Fatalf("snapshot without an env block: %v", err)
	}
	if prev.Env != nil || prev.Benchmarks["BenchmarkA"]["allocs/op"] != 4 {
		t.Errorf("old snapshot loaded as %+v", prev)
	}
}

// TestCompareReportsEnvironments: -compare prints both environments and
// warns when they differ or one is missing, without changing the verdict.
func TestCompareReportsEnvironments(t *testing.T) {
	env := Environment{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 2, NumCPU: 2, CPUModel: "A", Kernel: "6.1"}
	other := env
	other.CPUModel, other.NumCPU = "B", 4
	entries := func(ns float64) map[string]map[string]float64 {
		return map[string]map[string]float64{"BenchmarkA": {"ns/op": ns}}
	}
	for _, tc := range []struct {
		name       string
		base, cur  *Environment
		warn       string
		ns         float64
		wantFailed bool
	}{
		{"same", &env, &env, "", 1100, false},
		{"different", &env, &other, "WARNING: environments differ in num_cpu, cpu_model;", 1100, false},
		{"different, regressed", &env, &other, "WARNING: environments differ in num_cpu, cpu_model;", 1300, true},
		{"baseline not recorded", nil, &env, "WARNING: environments differ in all (an environment is not recorded);", 1100, false},
	} {
		base, cur := snapOf(entries(1000)), snapOf(entries(tc.ns))
		base.Env, cur.Env = tc.base, tc.cur
		report, failed := Compare(base, cur, 0.20)
		if failed != tc.wantFailed {
			t.Errorf("%s: failed = %v, want %v:\n%s", tc.name, failed, tc.wantFailed, report)
		}
		if !strings.Contains(report, "baseline env: "+tc.base.String()) || !strings.Contains(report, "current env:  "+tc.cur.String()) {
			t.Errorf("%s: environments not printed:\n%s", tc.name, report)
		}
		if got := strings.Contains(report, "WARNING"); got != (tc.warn != "") || !strings.Contains(report, tc.warn) {
			t.Errorf("%s: want warning %q:\n%s", tc.name, tc.warn, report)
		}
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFoo-8":      "BenchmarkFoo",
		"BenchmarkFoo/sub-16": "BenchmarkFoo/sub",
		"BenchmarkFoo":        "BenchmarkFoo",
		"BenchmarkFoo-bar":    "BenchmarkFoo-bar",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func snapOf(entries map[string]map[string]float64) *Snapshot {
	return &Snapshot{Schema: schemaID, Benchmarks: entries}
}

func TestCompareWithinTolerance(t *testing.T) {
	base := snapOf(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1000, "shifts": 50},
	})
	cur := snapOf(map[string]map[string]float64{
		"BenchmarkA": {"ns/op": 1150, "shifts": 50},
		"BenchmarkB": {"ns/op": 99999},
	})
	report, failed := Compare(base, cur, 0.20)
	if failed {
		t.Fatalf("15%% regression at 20%% tolerance failed:\n%s", report)
	}
	if !strings.Contains(report, "new  BenchmarkB") {
		t.Errorf("new benchmark not reported:\n%s", report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1201}})
	report, failed := Compare(base, cur, 0.20)
	if !failed {
		t.Fatalf("20.1%% regression at 20%% tolerance passed:\n%s", report)
	}
	if !strings.Contains(report, "FAIL BenchmarkA") {
		t.Errorf("regressed benchmark not named:\n%s", report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkGone": {"ns/op": 1000}})
	cur := snapOf(map[string]map[string]float64{})
	report, failed := Compare(base, cur, 0.20)
	if !failed {
		t.Fatalf("missing benchmark passed:\n%s", report)
	}
	if !strings.Contains(report, "missing from current run") {
		t.Errorf("missing benchmark not reported:\n%s", report)
	}
}

func TestCompareAllocRegressionFails(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 100}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 140}})
	report, failed := Compare(base, cur, 0.20)
	if !failed {
		t.Fatalf("40%% alloc regression at 20%% tolerance passed:\n%s", report)
	}
	if !strings.Contains(report, "allocs/op") {
		t.Errorf("alloc regression not named:\n%s", report)
	}
}

func TestCompareAllocSlackForTinyCounts(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 3}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 9}})
	if report, failed := Compare(base, cur, 0.20); failed {
		t.Fatalf("tiny alloc jitter within slack failed:\n%s", report)
	}
}

func TestCompareZeroAllocBaselineIsHardFloor(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 0}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 1}})
	if report, failed := Compare(base, cur, 0.20); !failed {
		t.Fatalf("zero-alloc baseline regression passed:\n%s", report)
	}
}

func TestCompareMissingAllocUnitFails(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "allocs/op": 0}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000}})
	report, failed := Compare(base, cur, 0.20)
	if !failed {
		t.Fatalf("vanished allocs/op unit disarmed the gate silently:\n%s", report)
	}
	if !strings.Contains(report, "missing from current run") {
		t.Errorf("missing alloc unit not reported:\n%s", report)
	}
}

func TestCompareReportsMetricDrift(t *testing.T) {
	base := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "shifts": 50}})
	cur := snapOf(map[string]map[string]float64{"BenchmarkA": {"ns/op": 1000, "shifts": 60}})
	report, failed := Compare(base, cur, 0.20)
	if failed {
		t.Fatalf("metric drift alone must not fail:\n%s", report)
	}
	if !strings.Contains(report, "drifted 50 -> 60") {
		t.Errorf("shifts drift not reported:\n%s", report)
	}
}
