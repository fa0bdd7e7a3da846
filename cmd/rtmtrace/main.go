// Command rtmtrace generates, converts and inspects access traces: the
// synthetic OffsetStone workloads in the text format rtmplace reads, and
// the compact binary format the out-of-core pipeline consumes
// (DESIGN.md §12).
//
// Usage:
//
//	rtmtrace gen -list
//	rtmtrace gen gsm > gsm.trace
//	rtmtrace gen -vars 40 -len 600 -sequences 3 -phases 3 custom > c.trace
//	rtmtrace gen -all traces/
//	rtmtrace convert -from vars -to bin -o trace.rtb trace.txt
//	rtmtrace convert -from bin -to vars trace.rtb
//	rtmtrace inspect trace.rtb
//	rtmtrace synth -vars 4096 -accesses 10000000 -seed 1 -o big.rtb
//	rtmtrace kernel big.rtb
//
// gen writes a bundled synthetic OffsetStone workload (-list names
// them), a custom profile (-vars and -len set, the name labels it) or,
// with -all, every workload as <dir>/<name>.trace, in the text format.
// convert translates between the text formats ('vars' named-variable
// traces, 'addr' raw R/W address records) and the binary format; it
// materializes the trace, so it is for corpus-sized inputs, not
// out-of-core ones. synth streams a seeded synthetic trace straight
// into the binary encoder in constant memory — this is how the
// 10⁷–10⁸-access CI workloads are produced without ever holding them.
// inspect scans a binary trace without loading it, verifying every
// sequence's fingerprint trailer. kernel builds the streaming cost
// kernel over each sequence — the out-of-core analysis step, with a
// working set proportional to distinct variables, not trace length —
// and reports the kernel's shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	racetrack "repro"
	"repro/internal/offsetstone"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "synth":
		err = cmdSynth(os.Args[2:])
	case "kernel":
		err = cmdKernel(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "rtmtrace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rtmtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rtmtrace gen [-list] [-all dir] [-vars n -len n [-sequences n] [-phases n] [-loopiness f] [-writes f]] <benchmark>
  rtmtrace convert [-from vars|addr|bin] [-to bin|vars] [-word-bytes n] [-o out] <in|->
  rtmtrace inspect <trace.rtb|->
  rtmtrace synth -vars n -accesses n [-seed n] [-zipf s] [-write-fraction f] [-o out]
  rtmtrace kernel <trace.rtb|->`)
}

// openIn opens the input argument ("-" is stdin).
func openIn(path string) (io.Reader, string, func(), error) {
	if path == "-" {
		return os.Stdin, "stdin", func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	return f, path, func() { f.Close() }, nil
}

// createOut creates the output target ("-" is stdout). The returned
// closer reports flush/close errors, which matter for writers.
func createOut(path string) (io.Writer, func() error, error) {
	if path == "-" {
		return os.Stdout, func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	list := fs.Bool("list", false, "list available benchmark names")
	all := fs.String("all", "", "write every benchmark as <dir>/<name>.trace and exit")
	vars := fs.Int("vars", 0, "custom profile: max variables per sequence")
	length := fs.Int("len", 0, "custom profile: max sequence length")
	sequences := fs.Int("sequences", 4, "custom profile: number of sequences")
	phases := fs.Int("phases", 3, "custom profile: program phases per sequence")
	loopiness := fs.Float64("loopiness", 0.5, "custom profile: loop-kernel fraction")
	writes := fs.Float64("writes", 0.3, "custom profile: write fraction")
	fs.Parse(args)

	if *list {
		for _, n := range offsetstone.Names() {
			p, _ := offsetstone.ProfileFor(n)
			fmt.Printf("%-10s %2d sequences, %4d..%4d vars, %4d..%4d accesses\n",
				n, p.Sequences, p.MinVars, p.MaxVars, p.MinLen, p.MaxLen)
		}
		return nil
	}
	if *all != "" {
		return writeAll(*all)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("gen wants exactly one benchmark name (or -list, -all)")
	}
	name := fs.Arg(0)

	var b *racetrack.Benchmark
	if *vars > 0 && *length > 0 {
		b = offsetstone.GenerateProfile(offsetstone.Profile{
			Name: name, Sequences: *sequences,
			MinVars: 2, MaxVars: *vars,
			MinLen: 2, MaxLen: *length,
			Phases: *phases, Loopiness: *loopiness,
			HotFraction: 0.15, WriteFraction: *writes,
		})
	} else {
		var err error
		if b, err = racetrack.GenerateBenchmark(name); err != nil {
			return err
		}
	}
	return racetrack.WriteBenchmark(os.Stdout, b)
}

// writeAll dumps the full synthetic suite into dir, one file per
// benchmark.
func writeAll(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range racetrack.BenchmarkNames() {
		b, err := racetrack.GenerateBenchmark(name)
		if err != nil {
			return err
		}
		f, err := os.Create(filepath.Join(dir, name+".trace"))
		if err != nil {
			return err
		}
		if err := racetrack.WriteBenchmark(f, b); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	from := fs.String("from", "vars", "input format: 'vars', 'addr' or 'bin'")
	to := fs.String("to", "bin", "output format: 'bin' or 'vars'")
	wordBytes := fs.Int("word-bytes", 4, "word granularity for -from addr")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("convert wants exactly one input file (or '-')")
	}

	r, name, done, err := openIn(fs.Arg(0))
	if err != nil {
		return err
	}
	defer done()

	var b *racetrack.Benchmark
	switch *from {
	case "vars":
		b, err = racetrack.ReadBenchmark(name, r)
	case "addr":
		var s *racetrack.Sequence
		s, err = racetrack.ReadAddressTrace(r, *wordBytes)
		if err == nil {
			b = &racetrack.Benchmark{Name: name, Sequences: []*racetrack.Sequence{s}}
		}
	case "bin":
		b, err = racetrack.ReadBinaryBenchmark(name, r)
	default:
		return fmt.Errorf("unknown -from %q (want 'vars', 'addr' or 'bin')", *from)
	}
	if err != nil {
		return err
	}

	w, closeOut, err := createOut(*out)
	if err != nil {
		return err
	}
	switch *to {
	case "bin":
		err = racetrack.WriteBinaryBenchmark(w, b)
	case "vars":
		err = racetrack.WriteBenchmark(w, b)
	default:
		err = fmt.Errorf("unknown -to %q (want 'bin' or 'vars')", *to)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	return err
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("inspect wants exactly one binary trace file (or '-')")
	}

	var (
		br      *racetrack.BinaryTraceReader
		name    = fs.Arg(0)
		backend = "buffered"
	)
	if name == "-" {
		name = "stdin"
		var err error
		br, err = racetrack.NewBinaryTraceReader(os.Stdin)
		if err != nil {
			return err
		}
	} else {
		bf, err := racetrack.OpenBinaryTrace(name)
		if err != nil {
			return err
		}
		defer bf.Close()
		if bf.Mapped() {
			backend = "mmap"
		}
		br = bf.Reader()
	}

	fmt.Printf("%s: binary trace, %d sequence(s), %s backend\n", name, br.SeqCount(), backend)
	var total int64
	for i := 0; ; i++ {
		sc, err := br.ScanSequence()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// Drain the stream (which verifies the fingerprint trailer),
		// tallying what the header alone cannot state.
		var writes, touched int64
		var seen []bool
		if nv := sc.NumVars(); nv <= 1<<26 { // skip the tally on implausible universes
			seen = make([]bool, nv)
		}
		for {
			a, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if a.Write {
				writes++
			}
			if seen != nil && !seen[a.Var] {
				seen[a.Var] = true
				touched++
			}
		}
		named := "unnamed"
		if sc.Names() != nil {
			named = "named"
		}
		fmt.Printf("  seq %d: %d accesses, %d variables (%s, %d touched), %d writes, fingerprint %#016x\n",
			i, sc.Len(), sc.NumVars(), named, touched, writes, sc.Fingerprint())
		total += sc.Len()
	}
	fmt.Printf("total: %d accesses, all fingerprints verified\n", total)
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	vars := fs.Int("vars", 0, "variable universe size (required)")
	accesses := fs.Int64("accesses", 0, "stream length (required)")
	seed := fs.Int64("seed", 1, "PRNG seed; equal configs generate bit-identical traces")
	zipf := fs.Float64("zipf", 0, "Zipf skew of variable popularity (0 = default)")
	writeFrac := fs.Float64("write-fraction", 0, "store probability per access (0 = default)")
	loopMin := fs.Int("loop-min", 0, "minimum loop-body length in distinct variables (0 = default)")
	loopMax := fs.Int("loop-max", 0, "maximum loop-body length in distinct variables (0 = default)")
	repMin := fs.Int("rep-min", 0, "minimum iterations per loop (0 = default)")
	repMax := fs.Int("rep-max", 0, "maximum iterations per loop (0 = default)")
	scatter := fs.Int("scatter", 0, "scattered single accesses between loops (0 = default)")
	out := fs.String("o", "-", "output file ('-' = stdout)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("synth takes no positional arguments")
	}

	cfg := racetrack.SynthConfig{
		Vars: *vars, Accesses: *accesses, Seed: *seed,
		ZipfS: *zipf, WriteFraction: *writeFrac,
		LoopMin: *loopMin, LoopMax: *loopMax,
		RepMin: *repMin, RepMax: *repMax,
		ScatterLen: *scatter,
	}
	gen, err := racetrack.NewSynthReader(cfg)
	if err != nil {
		return err
	}

	w, closeOut, err := createOut(*out)
	if err != nil {
		return err
	}
	// Generator straight into the streaming encoder: the counts are known
	// up front, so the whole trace flows through in constant memory.
	bw, err := racetrack.NewBinaryTraceWriter(w, 1)
	if err != nil {
		return err
	}
	if err := bw.BeginSequence(cfg.Vars, cfg.Accesses, nil); err != nil {
		return err
	}
	for {
		a, err := gen.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := bw.Append(a); err != nil {
			return err
		}
	}
	if err := bw.EndSequence(); err != nil {
		return err
	}
	if err := bw.Close(); err != nil {
		return err
	}
	if err := closeOut(); err != nil {
		return err
	}
	if *out != "-" {
		fmt.Printf("%s: %d accesses over %d variables (seed %d)\n", *out, cfg.Accesses, cfg.Vars, *seed)
	}
	return nil
}

func cmdKernel(args []string) error {
	fs := flag.NewFlagSet("kernel", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("kernel wants exactly one binary trace file (or '-')")
	}

	var (
		br   *racetrack.BinaryTraceReader
		name = fs.Arg(0)
	)
	if name == "-" {
		name = "stdin"
		var err error
		br, err = racetrack.NewBinaryTraceReader(os.Stdin)
		if err != nil {
			return err
		}
	} else {
		bf, err := racetrack.OpenBinaryTrace(name)
		if err != nil {
			return err
		}
		defer bf.Close()
		br = bf.Reader()
	}

	fmt.Printf("%s: streaming kernel build, %d sequence(s)\n", name, br.SeqCount())
	for i := 0; ; i++ {
		sc, err := br.ScanSequence()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		k, err := racetrack.NewStreamCostKernel(sc.NumVars(), sc)
		if err != nil {
			return err
		}
		fmt.Printf("  seq %d: %d accesses, %d variables -> kernel %d nnz, %d candidate slots\n",
			i, k.Accesses(), k.NumVars(), k.NNZ(), k.Candidates())
	}
	return nil
}
