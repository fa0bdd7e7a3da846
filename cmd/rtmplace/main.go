// Command rtmplace computes a data placement for an access trace and
// reports its shift cost, latency and energy on a Table I RTM device.
//
// Usage:
//
//	rtmplace -strategy DMA-SR -dbcs 4 trace.txt
//	echo "a b a b c c" | rtmplace -strategy AFD-OFU -dbcs 2 -
//	rtmplace -strategy GA -timeout 30s trace.txt
//	rtmplace -strategy GA -islands 4 trace.txt
//	rtmplace -portfolio trace.txt
//	rtmplace -format bin -stream -window 262144 trace.rtb
//
// The trace format is whitespace-separated variable names, "!" suffix for
// writes, optionally split into multiple sequences with "seq <name>"
// lines (each sequence is placed independently). -format addr reads raw
// R/W address records and -format bin reads the compact binary format
// (produce it with rtmtrace). With -stream the trace is never loaded:
// each sequence is placed window by window in bounded memory through
// Lab.PlaceStream, reporting the stitched shift cost (-stream requires
// -format bin and skips the Table I device simulation).
//
// rtmplace is written entirely against the public racetrack.Lab session
// API: it builds one Lab, places the benchmark through it and simulates
// the placements on the selected Table I device.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	racetrack "repro"
	"repro/cmd/internal/profiling"
)

func main() {
	var (
		strategy   = flag.String("strategy", "DMA-SR", "placement strategy: "+strategyNames())
		dbcs       = flag.Int("dbcs", 4, "number of DBCs (2, 4, 8 or 16 for Table I energy numbers)")
		ports      = flag.Int("ports", 1, "access ports per track; >1 optimizes and simulates under the multi-port cost model")
		capacity   = flag.Int("capacity", 0, "per-DBC capacity in words (0 = unlimited)")
		objective  = flag.String("objective", "", "cost objective to price the placement under: shifts, energy, runtime, faulty:<rate> (empty = shift count only; never changes the placement)")
		format     = flag.String("format", "vars", "trace format: 'vars' (named variables), 'addr' (raw R/W address records) or 'bin' (compact binary)")
		stream     = flag.Bool("stream", false, "place out-of-core: scan the trace window by window in bounded memory (requires -format bin)")
		window     = flag.Int("window", 0, "accesses per placement window for -stream (0 = default)")
		wordSize   = flag.Int("word-bytes", 4, "word granularity for -format addr")
		gaGens     = flag.Int("ga-generations", 200, "GA generations (strategy GA)")
		gaMu       = flag.Int("ga-mu", 100, "GA population size (strategy GA)")
		islands    = flag.Int("islands", 0, "GA islands: >1 runs the island-model GA with ring elite migration (strategy GA)")
		portfolio  = flag.Bool("portfolio", false, "race the whole strategy portfolio per sequence and keep the winner (ignores -strategy)")
		rwIters    = flag.Int("rw-iterations", 60000, "random-walk iterations (strategy RW)")
		seed       = flag.Int64("seed", 1, "PRNG seed for GA/RW")
		workers    = flag.Int("workers", runtime.NumCPU(), "worker goroutines for placing sequences concurrently")
		timeout    = flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
		verbose    = flag.Bool("v", false, "print the placement layout per sequence")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the placement run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file when the run finishes")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rtmplace [flags] <trace-file|->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmplace:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		path: flag.Arg(0), strategy: *strategy, format: *format,
		wordBytes: *wordSize, dbcs: *dbcs, ports: *ports, capacity: *capacity,
		objective: *objective,
		gaGens:    *gaGens, gaMu: *gaMu, islands: *islands, rwIters: *rwIters,
		portfolio: *portfolio, stream: *stream, window: *window,
		workers: *workers, seed: *seed, timeout: *timeout, verbose: *verbose,
	}
	if err := run(cfg); err != nil {
		stopProfiles()
		fmt.Fprintln(os.Stderr, "rtmplace:", err)
		os.Exit(1)
	}
	stopProfiles()
}

// strategyNames lists every strategy a fresh Lab resolves, for the flag
// help.
func strategyNames() string {
	lab, err := racetrack.New()
	if err != nil {
		return err.Error()
	}
	var names []string
	for _, id := range lab.RegisteredStrategies() {
		names = append(names, string(id))
	}
	return strings.Join(names, ", ")
}

// runConfig carries the flag values into run.
type runConfig struct {
	path      string
	strategy  string
	format    string
	wordBytes int
	dbcs      int
	ports     int
	capacity  int
	objective string
	gaGens    int
	gaMu      int
	islands   int
	portfolio bool
	stream    bool
	window    int
	rwIters   int
	workers   int
	seed      int64
	timeout   time.Duration
	verbose   bool
}

// placeOptions translates the flag values into PlaceOptions, shared by
// the in-RAM and streaming paths.
func (cfg runConfig) placeOptions() racetrack.PlaceOptions {
	ga := racetrack.DefaultGAConfig()
	ga.Generations = cfg.gaGens
	ga.Mu, ga.Lambda = cfg.gaMu, cfg.gaMu
	ga.Seed = cfg.seed
	ga.Islands = cfg.islands
	return racetrack.PlaceOptions{
		Strategy:  racetrack.Strategy(cfg.strategy),
		DBCs:      cfg.dbcs,
		Capacity:  cfg.capacity,
		Objective: cfg.objective,
		GA:        ga,
		RW:        racetrack.RWConfig{Iterations: cfg.rwIters, Seed: cfg.seed},
		Ports:     cfg.ports,
		Window:    cfg.window,
	}
}

func run(cfg runConfig) error {
	ctx := context.Background()
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	if cfg.stream {
		switch {
		case cfg.format != "bin":
			return fmt.Errorf("-stream requires -format bin (convert the trace with rtmtrace first)")
		case cfg.portfolio:
			return fmt.Errorf("-stream races one strategy per window; it cannot be combined with -portfolio")
		}
		return runStream(ctx, cfg)
	}

	var r io.Reader
	name := cfg.path
	if cfg.path == "-" {
		r = os.Stdin
		name = "stdin"
	} else {
		f, err := os.Open(cfg.path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var b *racetrack.Benchmark
	switch cfg.format {
	case "vars":
		var err error
		b, err = racetrack.ReadBenchmark(name, r)
		if err != nil {
			return err
		}
	case "addr":
		s, err := racetrack.ReadAddressTrace(r, cfg.wordBytes)
		if err != nil {
			return err
		}
		b = &racetrack.Benchmark{Name: name, Sequences: []*racetrack.Sequence{s}}
	case "bin":
		var err error
		b, err = racetrack.ReadBinaryBenchmark(name, r)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown -format %q (want 'vars', 'addr' or 'bin')", cfg.format)
	}
	if len(b.Sequences) == 0 {
		return fmt.Errorf("no access sequences in %s", name)
	}

	workers := cfg.workers
	if workers < 1 {
		workers = 1
	}
	lab, err := racetrack.New(racetrack.WithWorkers(workers))
	if err != nil {
		return err
	}

	opts := cfg.placeOptions()

	// The placements per sequence, in input order, for the simulation
	// below — filled by either the single-strategy or the portfolio path.
	placements := make([]*racetrack.Placement, len(b.Sequences))
	var total int64
	if cfg.portfolio {
		fmt.Printf("%s: %d sequence(s), portfolio race, %d DBCs, %d port(s)/track\n",
			name, len(b.Sequences), cfg.dbcs, cfg.ports)
		for i, s := range b.Sequences {
			r, err := lab.PlacePortfolio(ctx, s, opts)
			if err != nil {
				return err
			}
			placements[i] = r.Placement
			total += r.Shifts
			pruned := 0
			for _, e := range r.Entries {
				if e.Abandoned {
					pruned++
				}
			}
			fmt.Printf("  seq %d: %d accesses, %d variables -> %d shifts (winner %s, %d/%d pruned)\n",
				i, s.Len(), len(s.Distinct()), r.Shifts, r.Winner, pruned, len(r.Entries))
			printCost("    ", r.Cost)
			if cfg.verbose {
				fmt.Printf("    %s\n", r.Placement.Render(s))
			}
		}
	} else {
		fmt.Printf("%s: %d sequence(s), strategy %s, %d DBCs, %d port(s)/track\n",
			name, len(b.Sequences), opts.Strategy, cfg.dbcs, cfg.ports)

		// Sequences are independent placement problems: the Lab fans them
		// out on the shared experiment engine and reports in input order.
		res, err := lab.PlaceBenchmark(ctx, b, opts)
		if err != nil {
			return err
		}
		for i, s := range b.Sequences {
			placements[i] = res.Results[i].Placement
			fmt.Printf("  seq %d: %d accesses, %d variables -> %d shifts\n",
				i, s.Len(), len(s.Distinct()), res.Results[i].Shifts)
			printCost("    ", res.Results[i].Cost)
			if cfg.verbose {
				fmt.Printf("    %s\n", res.Results[i].Placement.Render(s))
			}
		}
		total = res.TotalShifts
		printCost("", res.TotalCost)
	}
	fmt.Printf("total shifts: %d\n", total)

	// Energy/latency when a Table I configuration was selected. The
	// simulated device carries the same port count the placements were
	// optimized under, so the replayed shift counts match the reported
	// cost model.
	dev, err := racetrack.TableIDevice(cfg.dbcs)
	if err != nil {
		fmt.Printf("(no Table I energy model for %d DBCs; shift count only)\n", cfg.dbcs)
		return nil
	}
	if cfg.ports > 1 {
		dev.Geometry.PortsPerTrack = cfg.ports
		if err := dev.Geometry.Validate(); err != nil {
			return err
		}
	}
	var agg racetrack.SimResult
	for i, s := range b.Sequences {
		r, err := lab.SimulateOn(ctx, dev, s, placements[i])
		if err != nil {
			return err
		}
		agg.Add(r)
	}
	fmt.Printf("latency: %.1f ns   energy: %.1f pJ (leakage %.1f / read-write %.1f / shift %.1f)\n",
		agg.LatencyNS, agg.Energy.TotalPJ(),
		agg.Energy.LeakagePJ, agg.Energy.ReadWritePJ, agg.Energy.ShiftPJ)
	return nil
}

// printCost renders a priced cost line (no-op without -objective).
func printCost(indent string, c *racetrack.Cost) {
	if c == nil {
		return
	}
	fmt.Printf("%scost[%s]: scalar=%g runtime=%gns energy=%gpJ (dynamic=%g leakage=%g) fault_shifts=%g\n",
		indent, c.Objective, c.Scalar, c.RuntimeNS, c.TotalEnergyPJ(), c.DynamicPJ, c.LeakagePJ, c.FaultShifts)
}

// runStream is the out-of-core path: the binary trace is scanned
// sequence by sequence and each sequence is placed window by window
// through Lab.PlaceStream, so memory stays O(window) no matter how long
// the trace is. Shift cost only — the Table I simulation replays
// materialized placements, which a streamed run never holds.
func runStream(ctx context.Context, cfg runConfig) error {
	var br *racetrack.BinaryTraceReader
	name := cfg.path
	if cfg.path == "-" {
		name = "stdin"
		var err error
		br, err = racetrack.NewBinaryTraceReader(os.Stdin)
		if err != nil {
			return err
		}
	} else {
		bf, err := racetrack.OpenBinaryTrace(cfg.path)
		if err != nil {
			return err
		}
		defer bf.Close()
		br = bf.Reader()
	}

	lab, err := racetrack.New()
	if err != nil {
		return err
	}
	opts := cfg.placeOptions()
	window := opts.Window
	if window <= 0 {
		window = racetrack.StreamWindow
	}
	fmt.Printf("%s: %d sequence(s), strategy %s, %d DBCs, %d port(s)/track, streaming (window %d)\n",
		name, br.SeqCount(), opts.Strategy, cfg.dbcs, cfg.ports, window)

	var total int64
	for i := 0; ; i++ {
		sc, err := br.ScanSequence()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		res, err := lab.PlaceStream(ctx, sc.NumVars(), sc, opts)
		if err != nil {
			return err
		}
		fmt.Printf("  seq %d: %d accesses, %d variables -> %d shifts (%d windows, %d migration shifts, peak window %d vars)\n",
			i, res.Accesses, sc.NumVars(), res.Shifts, res.Windows, res.MigrationShifts, res.MaxWindowVars)
		printCost("    ", res.Cost)
		total += res.Shifts
	}
	fmt.Printf("total shifts: %d\n", total)
	return nil
}
