// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the entry points users call — Lab.PlaceBenchmark plus
// Lab.SimulateOn as rtmplace uses them (files), Lab.Place with the
// paper's GA (search), Lab.PlaceStream over binary traces (stream) and
// the internal/server handler over loopback HTTP (serve) — checks every
// output, and prints the end-to-end metrics. With -trace 1 it instead
// replays each job stage by stage under spans and prints per-layer self
// times and counts. See README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload files --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	cfg, code := parseArgs(os.Args[1:], os.Stderr)
	if code == 0 {
		code = reexecInRuntimeEnv(cfg, os.Stderr)
	}
	if code == 0 {
		code = runConfig(cfg, os.Stdout, os.Stderr)
	}
	os.Exit(code)
}

// runtimeEnv holds the runtime settings a workload runs under where they
// differ from the runtime's defaults (README.md, Noise).
//
//   - GOMAXPROCS=1 (files, stream): every placement runs on one worker,
//     and with a second thread the collector marked on the second vCPU.
//     While the host slowed that vCPU the heap overshot: stream's peak
//     RSS rose from 32 to 44–51 MiB and files' from 15 to 21 MiB, and
//     both ran slower. With one thread, stream's peak stayed at 29–33 MiB
//     and files' at 15–16 MiB.
//   - GODEBUG=madvdontneed=0 (stream): a stream job allocates about
//     92 MB, and under the default, MADV_DONTNEED, it faulted about
//     36 MiB of freed heap back in; on a shared virtual machine the cost
//     of those faults moved more between runs than the job did.
//     MADV_FREE leaves freed pages mapped.
//
// search keeps the defaults, and serve needs its second thread for the
// server and its two clients.
var runtimeEnv = map[string]map[string]string{
	"files":  {"GOMAXPROCS": "1"},
	"stream": {"GODEBUG": "madvdontneed=0", "GOMAXPROCS": "1"},
}

// reexecInRuntimeEnv replaces the process with a fresh image of itself
// under the workload's runtimeEnv when that is not in force yet: the
// runtime reads these settings only at start-up. It returns 0 when the
// process goes on as it is.
func reexecInRuntimeEnv(cfg config, stderr io.Writer) int {
	env := execEnv(cfg.workload, os.Environ())
	if env == nil {
		return 0
	}
	exe, err := os.Executable()
	if err == nil {
		err = syscall.Exec(exe, os.Args, env)
	}
	fmt.Fprintf(stderr, "perfbench: re-executing the %s workload in %v: %v\n", cfg.workload, runtimeEnv[cfg.workload], err)
	return 1
}

// execEnv returns environ with the workload's runtimeEnv settings in
// place of any earlier values, or nil when every setting is in force.
// As for os.Getenv, the first of duplicate variables counts.
func execEnv(workload string, environ []string) []string {
	want := runtimeEnv[workload]
	have := make(map[string]string)
	var env []string
	for _, kv := range environ {
		k, v, _ := strings.Cut(kv, "=")
		if _, ok := want[k]; !ok {
			env = append(env, kv)
		} else if _, seen := have[k]; !seen {
			have[k] = v
		}
	}
	inForce := true
	for _, k := range sortedKeys(want) {
		inForce = inForce && have[k] == want[k]
		env = append(env, k+"="+want[k])
	}
	if inForce {
		return nil
	}
	return env
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string
	setups   int     // set-up repetitions; setup_s is their median
	scale    float64 // job-set scale for the unit tests; 1 = the full benchmark
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, code := parseArgs(args, stderr)
	if code != 0 {
		return code
	}
	return runConfig(cfg, stdout, stderr)
}

// parseArgs reads the command line; a nonzero code is the exit code of
// a usage error.
func parseArgs(args []string, stderr io.Writer) (config, int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "schedule seed: permutes job order and the serve request schedule, never trace content")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "timed measurement length in seconds (whole passes; at least one)")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer self times and counts instead of end-to-end metrics")
	fs.StringVar(&cfg.workDir, "dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for inputs and spans")
	if err := fs.Parse(args); err != nil {
		return cfg, 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", traceFlag)
		return cfg, 2
	}
	cfg.trace, cfg.setups, cfg.scale = traceFlag == 1, 5, 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return cfg, 2
	}
	return cfg, 0
}

func runConfig(cfg config, stdout, stderr io.Writer) int {
	res, err := execute(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	// A printed result exits 0 even when a check failed: the result's
	// correct and failed fields carry the verdict.
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// totals are one pass's simulated outcomes, summed in canonical job
// order so they repeat bit for bit whatever the schedule.
type totals struct {
	Shifts   int64
	EnergyPJ float64 // Table I dynamic + leakage energy
	TimeNS   float64 // Table I serialized access time
}

// A passResult is one pass over a workload's fixed multiset of jobs.
type passResult struct {
	latMS     []float64 // one latency per job or request
	cold      []bool    // serve: whether each request was its key's first in the round
	accesses  int64     // trace accesses placed or answered
	wall      time.Duration
	totals    totals
	attempted int
	failures  []string
	counts    map[string]float64 // per-layer counters of the pass
}

// startJob starts a job's clock after an untimed collection, which
// gives every job the clean heap a fresh rtmplace process starts with:
// one job's garbage does not inflate the next job's peak memory.
func startJob() time.Time {
	runtime.GC()
	return time.Now()
}

// record stops a job's clock; the pass's timed wall time is the sum of
// its jobs' latencies.
func (p *passResult) record(t0 time.Time) {
	d := time.Since(t0)
	p.wall += d
	p.latMS = append(p.latMS, float64(d)/1e6)
}

func (p *passResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

// A workload is one benchmark scenario over a fixed multiset of jobs.
type workload interface {
	// setup builds every input under dir and warms up. It is repeated
	// for setup_s, so it must be deterministic and self-contained.
	setup(ctx context.Context, dir string) error
	// pass runs every job once in an order drawn from rng.
	pass(ctx context.Context, rng *rand.Rand) (*passResult, error)
	// tracedPass replays every job stage by stage under spans.
	tracedPass(ctx context.Context, rng *rand.Rand, tr *tracer) (*passResult, error)
	// verify runs the checks that need a reference answer, after timing.
	verify(ctx context.Context) []string
}

var workloadNames = []string{"files", "search", "stream", "serve"}

func newWorkload(name string, scale float64) (workload, error) {
	switch name {
	case "files":
		return &filesWorkload{scale: scale}, nil
	case "search":
		return &searchWorkload{scale: scale}, nil
	case "stream":
		return &streamWorkload{scale: scale}, nil
	case "serve":
		return &serveWorkload{scale: scale}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// maxPasses caps a run whose passes are far faster than expected.
const maxPasses = 100000

// passRNG derives the schedule of one pass from the run seed.
func passRNG(seed int64, pass int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
}

// execute sets up, measures and checks one workload.
func execute(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.scale)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	setupS, err := timedSetups(ctx, w, dir, cfg.setups)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupRSS, _ := peakRSSMiB()
	fmt.Fprintf(out, "# workload %s seed %d: set-up %.4f s (median of %d), peak RSS %.1f MiB after set-up\n", cfg.workload, cfg.seed, median(setupS), len(setupS), setupRSS)
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(out, "# peak RSS not reset, peak_rss_mib includes set-up: %v\n", err)
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	plain, traced, err := measure(ctx, w, cfg.seed, budget, tr)
	if err != nil {
		return nil, err
	}
	var res *result
	if cfg.trace {
		spansPath := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(spansPath, tr.spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), spansPath)
		res = perLayer(cfg.workload, plain, traced, out)
	} else if res, err = endToEnd(cfg.workload, setupS, plain, out); err != nil {
		return nil, err
	}
	finish(ctx, w, res, append(plain, traced...), out)
	printEnv(out, cfg)
	return res, nil
}

// timedSetups runs the set-up n times in fresh directories and returns
// each duration in seconds; the last set-up's inputs stay for the run.
func timedSetups(ctx context.Context, w workload, dir string, n int) ([]float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		d := filepath.Join(dir, fmt.Sprintf("inputs-%d", i))
		runtime.GC() // the previous set-up's garbage does not count
		start := time.Now()
		if err := w.setup(ctx, d); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			if err := os.RemoveAll(filepath.Join(dir, fmt.Sprintf("inputs-%d", i-1))); err != nil {
				return nil, err
			}
		}
	}
	return secs, nil
}

// measured is one pass of a run, with its span profile when traced.
type measured struct {
	*passResult
	prof *profile
}

// measure runs whole passes until at least minPercentileSamples samples
// exist and another round would end more than half a round past budget,
// so runs last about budget whatever a pass takes. With a tracer every
// round is an untraced pass followed by a traced replay of the same
// jobs, so drift in the host's speed affects both alike.
func measure(ctx context.Context, w workload, seed int64, budget time.Duration, tr *tracer) (plain, traced []measured, err error) {
	samples := 0
	start := time.Now()
	for i := 0; i < maxPasses; i++ {
		if elapsed := time.Since(start); i > 0 && samples >= minPercentileSamples && elapsed+elapsed/time.Duration(2*i) > budget {
			break
		}
		p, err := w.pass(ctx, passRNG(seed, 2*i))
		if err != nil {
			return nil, nil, err
		}
		plain = append(plain, measured{passResult: p})
		samples += len(p.latMS)
		if tr == nil {
			continue
		}
		from := len(tr.spans)
		t, err := w.tracedPass(ctx, passRNG(seed, 2*i+1), tr)
		if err != nil {
			return nil, nil, err
		}
		prof := profileOf(tr.spans, from)
		traced = append(traced, measured{passResult: t, prof: &prof})
	}
	return plain, traced, nil
}

// finish applies the cross-pass and reference checks and fills in the
// attempted/failed counts.
func finish(ctx context.Context, w workload, res *result, passes []measured, out io.Writer) {
	var failures []string
	for i, p := range passes {
		res.Attempted += p.attempted
		res.Failed += len(p.failures)
		failures = append(failures, p.failures...)
		if i > 0 && p.totals != passes[0].totals {
			res.Failed++
			failures = append(failures, fmt.Sprintf("pass %d totals %+v differ from pass 0 totals %+v", i, p.totals, passes[0].totals))
		}
	}
	ref := w.verify(ctx)
	res.Failed += len(ref)
	failures = append(failures, ref...)
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(out, "# ... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintf(out, "# FAILED: %s\n", f)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
}

// resetPeakRSS hands freed heap pages back to the kernel and resets the
// kernel's resident-set high-water mark to the current resident set
// (Linux 4.0 and later), so that peak_rss_mib measures the timed passes.
// Without it the five set-ups set the peak of the workloads with small
// jobs, and how much garbage a set-up held when the collector ran moved
// files' peak by up to 9 MiB between runs.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB is the process's maximum resident set size since the last
// resetPeakRSS.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// endToEnd computes the end-to-end metrics of untraced passes.
func endToEnd(name string, setupS []float64, passes []measured, out io.Writer) (*result, error) {
	// Rates are the run's work over its timed wall time. The host's speed
	// drifts in phases of seconds; a median of per-pass rates jumps when
	// the share of slow passes crosses half, while this total moves with
	// that share. In ten runs per workload it spread 0.05–0.14 where the
	// median of per-pass rates spread 0.07–0.17.
	var lat, accRate []float64
	var accesses int64
	var wall time.Duration
	for _, p := range passes {
		lat = append(lat, p.latMS...)
		accRate = append(accRate, float64(p.accesses)/p.wall.Seconds())
		accesses += p.accesses
		wall += p.wall
	}
	p50, err := percentile(lat, 0.5)
	if err != nil {
		return nil, err
	}
	p90, err := percentile(lat, 0.9)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	t := passes[0].totals
	m := map[string]metric{
		"setup_s":        {median(setupS), "s"},
		"accesses_per_s": {float64(accesses) / wall.Seconds(), "accesses/s"},
		"req_per_s":      {float64(len(lat)) / wall.Seconds(), "req/s"},
		"job_p50_ms":     {p50, "ms"},
		"job_p90_ms":     {p90, "ms"},
		"peak_rss_mib":   {rss, "MiB"},
		"shifts":         {float64(t.Shifts), "count"},
		"sim_energy_uj":  {t.EnergyPJ / 1e6, "uJ_sim"},
		"sim_time_us":    {t.TimeNS / 1e3, "us_sim"},
	}
	fmt.Fprintf(out, "# %s: %d passes, %d samples\n", name, len(passes), len(lat))
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(out, "%-16s %20.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(out, "# job_p50_ms and job_p90_ms from %d samples; rates over %d passes, %.3f s timed\n", len(lat), len(passes), wall.Seconds())
	fmt.Fprintf(out, "# per-pass accesses/s:")
	for _, r := range accRate {
		fmt.Fprintf(out, " %.4g", r)
	}
	fmt.Fprintln(out)
	for _, c := range []string{"cold", "warm"} {
		xs := latencies(passes, c == "cold")
		p50, err1 := percentile(xs, 0.5)
		p90, err2 := percentile(xs, 0.9)
		if err1 == nil && err2 == nil {
			fmt.Fprintf(out, "# %s_p50_ms %.6f  %s_p90_ms %.6f  (%d samples)\n", c, p50, c, p90, len(xs))
		}
	}
	return &result{Metrics: m}, nil
}

// latencies collects serve's cold (or warm) request latencies.
func latencies(passes []measured, cold bool) []float64 {
	var xs []float64
	for _, p := range passes {
		for i, c := range p.cold {
			if c == cold {
				xs = append(xs, p.latMS[i])
			}
		}
	}
	return xs
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
