package main

import (
	"fmt"
	"io"
	"strings"
)

// Span names of the traced replays, one per stage. A metric
// "<stage>.self_ms" is the stage's self time summed over one pass.
const (
	spanTextDecode   = "trace.text_decode"
	spanBinDecode    = "trace.bin_decode"
	spanBinScan      = "trace.bin_scan"
	spanRequestParse = "trace.request_parse"
	spanFingerprint  = "trace.fingerprint"
	spanNewLab       = "racetrack.new_lab"
	spanKernelCache  = "racetrack.kernel_cache"
	spanKernelBuild  = "placement.kernel_build"
	spanPlace        = "placement.place." // + strategy name
	spanStreamWindow = "placement.stream_window"
	spanBreakdown    = "placement.breakdown"
	spanPrice        = "placement.price"
	spanSimRun       = "sim.run"
	spanServerDecode = "server.decode"
	spanServerEncode = "server.encode"
)

// Per-pass counter keys. Names that are also metrics are reported as
// they are; the others feed a ratio.
const (
	cntDecodedAccesses = "trace.decoded_accesses"
	cntKernelNNZ       = "placement.kernel_nnz"
	cntGAEvals         = "placement.ga_evals"
	cntStreamWindows   = "placement.stream_windows"
	cntMigratedVars    = "placement.stream_migrated_vars"
	cntSimAccesses     = "sim.simulated_accesses"
	cntCoalesced       = "server.coalesced"
	cntShed            = "server.shed"

	cntKernelHits      = "kernel_cache.hits"
	cntKernelLookups   = "kernel_cache.lookups"
	cntMigrationShifts = "stream.migration_shifts"
	cntStreamShifts    = "stream.shifts"
)

// heuristicNames are the placement strategies the files workload runs.
var heuristicNames = []string{"AFD-OFU", "DMA-OFU", "DMA-Chen", "DMA-SR", "DMA-2opt"}

// layerMetrics lists every per-layer metric of the traced run with its
// unit, in report order. BENCHMARK.json's per_layer list mirrors it.
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"trace.text_decode.self_ms", "ms"},
		{"trace.bin_decode.self_ms", "ms"},
		{"trace.bin_scan.self_ms", "ms"},
		{"trace.request_parse.self_ms", "ms"},
		{"trace.fingerprint.self_ms", "ms"},
		{cntDecodedAccesses, "count"},
		{"racetrack.new_lab.self_ms", "ms"},
		{"racetrack.kernel_cache.self_ms", "ms"},
		{"racetrack.glue.self_ms", "ms"},
		{"racetrack.kernel_cache_hit_ratio", "ratio"},
		{"placement.kernel_build.self_ms", "ms"},
		{cntKernelNNZ, "count"},
	}
	for _, s := range append(append([]string(nil), heuristicNames...), "GA") {
		m = append(m, [2]string{spanPlace + s + ".self_ms", "ms"})
	}
	return append(m, [][2]string{
		{cntGAEvals, "count"},
		{"placement.ga_us_per_eval", "us"},
		{"placement.stream_window.self_ms", "ms"},
		{cntStreamWindows, "count"},
		{cntMigratedVars, "count"},
		{"placement.stream_migration_shift_ratio", "ratio"},
		{"placement.breakdown.self_ms", "ms"},
		{"placement.price.self_ms", "ms"},
		{"sim.run.self_ms", "ms"},
		{cntSimAccesses, "count"},
		{"server.decode.self_ms", "ms"},
		{"server.encode.self_ms", "ms"},
		{"server.glue.self_ms", "ms"},
		{cntCoalesced, "count"},
		{cntShed, "count"},
		{"server.cold_p50_ms", "ms"},
		{"server.cold_p90_ms", "ms"},
		{"server.warm_p50_ms", "ms"},
		{"server.warm_p90_ms", "ms"},
		{"bench.untraced_e2e_ms", "ms"},
		{"bench.traced_e2e_ms", "ms"},
		{"bench.stage_sum_ms", "ms"},
		{"bench.residual_ratio", "ratio"},
		{"bench.tracing_overhead_ratio", "ratio"},
	}...)
}()

// perLayer computes the traced run's metrics. plain are the untraced
// passes of the same invocation (the end-to-end baseline and the
// server's own counters), traced the stage-by-stage replays. Every
// value is per pass: the median over the passes that measure it.
func perLayer(workload string, plain, traced []measured, out io.Writer) *result {
	perPass := func(ps []measured, f func(m measured) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	count := func(ps []measured, key string) float64 {
		return perPass(ps, func(m measured) float64 { return m.counts[key] })
	}
	self := func(stage string) float64 {
		return perPass(traced, func(m measured) float64 { return float64(m.prof.selfNS[stage]) / 1e6 })
	}
	untraced := perPass(plain, func(m measured) float64 {
		var sum float64
		for _, l := range m.latMS {
			sum += l
		}
		return sum
	})
	tracedE2E := perPass(traced, func(m measured) float64 { return float64(m.prof.rootNS) / 1e6 })
	stageSum := perPass(traced, func(m measured) float64 { return float64(m.prof.stageNS) / 1e6 })
	glue := untraced - stageSum

	v := make(map[string]float64)
	for _, lm := range layerMetrics {
		if stage, ok := strings.CutSuffix(lm[0], ".self_ms"); ok {
			v[lm[0]] = self(stage)
		}
	}
	for _, k := range []string{cntDecodedAccesses, cntKernelNNZ, cntGAEvals, cntStreamWindows, cntMigratedVars, cntSimAccesses} {
		v[k] = count(traced, k)
	}
	for _, k := range []string{cntCoalesced, cntShed} {
		v[k] = count(plain, k)
	}
	glueLayer := "racetrack" // Lab and engine work the replay leaves out
	if workload == "serve" {
		glueLayer = "server" // HTTP, admission, coalescing, client contention
	}
	v[glueLayer+".glue.self_ms"] = glue
	v["racetrack.kernel_cache_hit_ratio"] = ratio(count(plain, cntKernelHits), count(plain, cntKernelLookups))
	v["placement.ga_us_per_eval"] = ratio(v[spanPlace+"GA.self_ms"]*1e3, v[cntGAEvals])
	v["placement.stream_migration_shift_ratio"] = ratio(count(traced, cntMigrationShifts), count(traced, cntStreamShifts))
	for _, c := range []string{"cold", "warm"} {
		xs := latencies(plain, c == "cold")
		if p50, err := percentile(xs, 0.5); err == nil {
			v["server."+c+"_p50_ms"] = p50
		}
		if p90, err := percentile(xs, 0.9); err == nil {
			v["server."+c+"_p90_ms"] = p90
		}
	}
	v["bench.untraced_e2e_ms"] = untraced
	v["bench.traced_e2e_ms"] = tracedE2E
	v["bench.stage_sum_ms"] = stageSum
	v["bench.residual_ratio"] = ratio(glue, untraced)
	v["bench.tracing_overhead_ratio"] = ratio(tracedE2E, untraced) - 1

	res := &result{Metrics: make(map[string]metric, len(layerMetrics))}
	fmt.Fprintf(out, "# %s traced: %d untraced and %d traced passes; values per pass\n", workload, len(plain), len(traced))
	for _, lm := range layerMetrics {
		res.Metrics[lm[0]] = metric{Value: v[lm[0]], Unit: lm[1]}
		fmt.Fprintf(out, "%-40s %18.6f %s\n", lm[0], v[lm[0]], lm[1])
	}
	fmt.Fprintf(out, "# stage self times sum to %.3f ms of %.3f ms untraced per pass: residual %.2f%% (%s glue); tracing overhead %+.2f%%\n",
		stageSum, untraced, 100*ratio(glue, untraced), glueLayer, 100*(ratio(tracedE2E, untraced)-1))
	return res
}
