// Command benchjson converts `go test -bench` text output into a JSON
// benchmark snapshot and gates performance regressions against a
// committed baseline. It is the tooling behind CI's bench job (see
// .github/workflows/ci.yml): every run emits BENCH_pr<N>.json as an
// artifact and fails the job when a benchmark's ns/op — or, with
// -benchmem output present, allocs/op — regresses more than the
// tolerance over BENCH_baseline.json.
//
// Usage:
//
//	go test -bench=... -benchtime=1x -count=3 -benchmem ./... | benchjson -o BENCH_pr3.json
//	benchjson -compare -baseline BENCH_baseline.json -current BENCH_pr3.json -tolerance 0.20
//
// With -count > 1 the snapshot keeps the minimum ns/op, B/op and
// allocs/op per benchmark (the steadiest estimates under scheduler
// noise); non-timing metrics emitted via b.ReportMetric (shifts, hit%,
// ...) are deterministic in this repository, so the last observation is
// kept. Alloc regressions gate because the repository's hot evaluation
// paths are required to stay allocation-free in steady state (DESIGN.md
// §8): a creeping allocs/op is a correctness-of-intent failure long
// before it is a wall-clock one.
//
// A snapshot also records the machine it was measured on (Go version,
// GOOS/GOARCH, GOMAXPROCS, NumCPU, CPU model, kernel release). -compare
// prints both environments and flags a mismatch: an ns/op ratio across
// two machines measures the machines as well as the code. The verdict
// does not depend on the environments.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is the JSON schema: benchmark name → unit → value, and the
// environment the benchmarks ran in. Env is nil in snapshots written
// before it was recorded.
type Snapshot struct {
	Schema     string                        `json:"schema"`
	Env        *Environment                  `json:"env,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// Environment describes the machine and toolchain a snapshot was
// measured on, with the fields perfbench's env line records.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

// String renders the environment on one line.
func (e *Environment) String() string {
	if e == nil {
		return "not recorded"
	}
	return fmt.Sprintf("%s %s/%s GOMAXPROCS=%d NumCPU=%d cpu=%q kernel=%s",
		e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.Kernel)
}

// fillHost completes the fields `go test` output does not carry from
// the machine benchjson runs on, which is the one that ran the
// benchmarks when their output is piped in.
func (e *Environment) fillHost() {
	e.GoVersion = runtime.Version()
	e.NumCPU = runtime.NumCPU()
	if e.GOOS == "" {
		e.GOOS = runtime.GOOS
	}
	if e.GOARCH == "" {
		e.GOARCH = runtime.GOARCH
	}
	if e.CPUModel == "" {
		e.CPUModel = "unknown"
		cpuinfo, _ := os.ReadFile("/proc/cpuinfo")
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	e.Kernel = "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
}

// envMismatch lists the fields in which two environments differ; a
// missing environment differs in every field.
func envMismatch(a, b *Environment) []string {
	if a == nil || b == nil {
		return []string{"all (an environment is not recorded)"}
	}
	var diff []string
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Interface() != bv.Field(i).Interface() {
			diff = append(diff, av.Type().Field(i).Tag.Get("json"))
		}
	}
	return diff
}

const schemaID = "rtm-bench/v1"

func main() {
	var (
		out       = flag.String("o", "", "write the JSON snapshot to this file (default stdout)")
		compare   = flag.Bool("compare", false, "compare -current against -baseline instead of parsing")
		baseline  = flag.String("baseline", "", "baseline snapshot for -compare")
		current   = flag.String("current", "", "current snapshot for -compare")
		tolerance = flag.Float64("tolerance", 0.20, "allowed fractional ns/op regression before failing")
	)
	flag.Parse()

	if *compare {
		if *baseline == "" || *current == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -compare requires -baseline and -current")
			os.Exit(2)
		}
		base, err := readSnapshot(*baseline)
		if err != nil {
			fatal(err)
		}
		cur, err := readSnapshot(*current)
		if err != nil {
			fatal(err)
		}
		report, failed := Compare(base, cur, *tolerance)
		fmt.Print(report)
		if failed {
			os.Exit(1)
		}
		return
	}

	snap, err := Parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(snap.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}
	snap.Env.fillHost()
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(2)
}

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != schemaID {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, schemaID)
	}
	return &s, nil
}

// Parse reads `go test -bench` output and aggregates benchmark lines into
// a snapshot. Benchmark lines look like
//
//	BenchmarkTwoOptDelta-8    1    20335708 ns/op    53147 shifts
//
// i.e. name-GOMAXPROCS, iteration count, then (value, unit) pairs. The
// GOMAXPROCS suffix is stripped so snapshots compare across machines;
// the first line's (none means 1) goes into Env, with the goos, goarch
// and cpu header lines `go test` prints. main completes Env from the
// host (Environment.fillHost).
func Parse(r io.Reader) (*Snapshot, error) {
	snap := &Snapshot{Schema: schemaID, Env: &Environment{}, Benchmarks: map[string]map[string]float64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ": "); ok {
			switch k {
			case "goos":
				snap.Env.GOOS = v
			case "goarch":
				snap.Env.GOARCH = v
			case "cpu":
				snap.Env.CPUModel = v
			}
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // not an iteration count: some other Benchmark-prefixed line
		}
		name := trimProcs(fields[0])
		if snap.Env.GOMAXPROCS == 0 {
			snap.Env.GOMAXPROCS = 1
			if procs, err := strconv.Atoi(strings.TrimPrefix(fields[0], name+"-")); err == nil {
				snap.Env.GOMAXPROCS = procs
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // trailing non-measurement columns
			}
			unit := fields[i+1]
			m := snap.Benchmarks[name]
			if m == nil {
				m = map[string]float64{}
				snap.Benchmarks[name] = m
			}
			if prev, seen := m[unit]; seen && minUnit(unit) && prev <= val {
				continue // keep the minimum across -count runs
			}
			m[unit] = val
		}
	}
	return snap, sc.Err()
}

// minUnit reports whether a unit aggregates by minimum across -count
// runs: timings and allocation counters, where the smallest observation
// is the least scheduler/GC-noise-contaminated one.
func minUnit(unit string) bool {
	return unit == "ns/op" || unit == "B/op" || unit == "allocs/op"
}

// trimProcs strips the -GOMAXPROCS suffix go test appends to benchmark
// names (Benchmark/sub-8 → Benchmark/sub).
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Compare checks every baseline benchmark against the current snapshot:
// a missing benchmark, an ns/op regression beyond the tolerance, or an
// allocs/op regression beyond the tolerance (plus a small absolute
// slack for tiny counts; a zero-alloc baseline is a hard floor) fails.
// Benchmarks only present in the current snapshot are reported but never
// fail (new benchmarks land before their baseline entry). Other units
// are reported informationally.
func Compare(base, cur *Snapshot, tolerance float64) (string, bool) {
	var b strings.Builder
	failed := false

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(&b, "baseline env: %s\n", base.Env)
	fmt.Fprintf(&b, "current env:  %s\n", cur.Env)
	if diff := envMismatch(base.Env, cur.Env); len(diff) > 0 {
		fmt.Fprintf(&b, "WARNING: environments differ in %s; ns/op ratios compare the machines as well as the code\n", strings.Join(diff, ", "))
	}
	fmt.Fprintf(&b, "benchmark comparison (tolerance %+.0f%% ns/op and allocs/op)\n", 100*tolerance)
	for _, name := range names {
		bm := base.Benchmarks[name]
		cm, ok := cur.Benchmarks[name]
		if !ok {
			fmt.Fprintf(&b, "  FAIL %-48s missing from current run\n", name)
			failed = true
			continue
		}
		baseNs, hasBase := bm["ns/op"]
		curNs, hasCur := cm["ns/op"]
		switch {
		case !hasBase || !hasCur:
			fmt.Fprintf(&b, "  ok   %-48s (no ns/op to compare)\n", name)
		case baseNs <= 0:
			fmt.Fprintf(&b, "  ok   %-48s (degenerate baseline %.0f ns/op)\n", name, baseNs)
		default:
			ratio := curNs / baseNs
			verdict := "ok  "
			if ratio > 1+tolerance {
				verdict = "FAIL"
				failed = true
			}
			fmt.Fprintf(&b, "  %s %-48s %12.0f -> %12.0f ns/op  (%+.1f%%)\n",
				verdict, name, baseNs, curNs, 100*(ratio-1))
		}
		if baseA, ok := bm["allocs/op"]; ok {
			switch curA, ok := cm["allocs/op"]; {
			case !ok:
				// A baseline-gated unit that vanished (e.g. -benchmem
				// dropped from the bench job) would silently disarm the
				// gate; treat it like a missing benchmark.
				fmt.Fprintf(&b, "  FAIL %-48s allocs/op gated in baseline but missing from current run\n", name)
				failed = true
			case allocRegressed(baseA, curA, tolerance):
				fmt.Fprintf(&b, "  FAIL %-48s %12.0f -> %12.0f allocs/op\n", name, baseA, curA)
				failed = true
			}
		}
		for _, unit := range sortedUnits(bm) {
			if unit == "ns/op" || unit == "allocs/op" || unit == "B/op" {
				continue
			}
			if cv, ok := cm[unit]; ok && cv != bm[unit] {
				fmt.Fprintf(&b, "       %-48s %s drifted %g -> %g\n", name, unit, bm[unit], cv)
			}
		}
	}
	var fresh []string
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Strings(fresh)
	for _, name := range fresh {
		fmt.Fprintf(&b, "  new  %-48s (not in baseline)\n", name)
	}
	if failed {
		b.WriteString("FAIL: benchmark regression over baseline — investigate, or refresh BENCH_baseline.json if the change is intended\n")
	} else {
		b.WriteString("PASS: no benchmark regressions over baseline\n")
	}
	return b.String(), failed
}

// allocRegressed applies the alloc gate: a zero-alloc baseline must stay
// at zero; otherwise the count may grow by the fractional tolerance plus
// a slack of 8 allocations (tiny counts jitter with map growth and GC
// timing without signifying a real leak).
func allocRegressed(base, cur, tolerance float64) bool {
	if base == 0 {
		return cur > 0
	}
	return cur > base*(1+tolerance)+8
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
