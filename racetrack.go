// Package racetrack is the public API of this repository: a Go
// implementation of "Generalized Data Placement Strategies for Racetrack
// Memories" (Khan, Goens, Hameed, Castrillon — DATE 2020).
//
// Racetrack memories (RTM) store data in magnetic nanotracks grouped into
// domain block clusters (DBCs); accessing a word requires shifting its
// track under an access port, and shifts dominate RTM latency and energy.
// Given a program's memory-access trace, this package computes placements
// of the program's variables across and within DBCs that minimize the
// total shift count, reproducing the paper's heuristics (DMA), baselines
// (AFD, OFU, Chen, ShiftsReduce, random walk), genetic algorithm, and
// evaluation pipeline (Table I device model, shift/latency/energy
// simulation).
//
// # Quick start
//
// The session object is a Lab: an instance-scoped strategy registry, a
// default device, a worker pool, a content-addressed cost-kernel cache
// and context-first methods.
//
//	lab, err := racetrack.New(
//		racetrack.WithDevice(4),
//		racetrack.WithWorkers(8),
//	)
//	...
//	seq, err := racetrack.ParseSequence("a b a b c a c a d d a")
//	...
//	res, err := lab.Place(ctx, seq, racetrack.PlaceOptions{
//		Strategy: racetrack.DMAOFU,
//	})
//	fmt.Println(res.Shifts, res.Placement)
//
// Labs also run the paper's experiment pipeline (Lab.Run with a typed
// ExperimentSpec), simulate placements on Table I devices (Lab.Simulate,
// Lab.SimulateBenchmark) and accept custom strategies scoped to the
// instance (WithStrategy, Lab.RegisterStrategy) — two Labs can register
// different strategies under the same name and run concurrently. The
// Lab is the only way to run a strategy by name: there is no
// process-wide registry and no package-level placement function.
//
// The subpackages under internal/ hold the implementation: trace analysis
// (internal/trace), the RTM device model (internal/rtm), the Table I
// energy model (internal/energy), the placement algorithms
// (internal/placement), the synthetic OffsetStone workloads
// (internal/offsetstone), the trace-driven simulator whose one replay
// both Lab.Simulate and SimulateCycles time (internal/sim) and the
// per-figure experiment harness (internal/eval).
package racetrack

import (
	"fmt"
	"io"

	"repro/internal/cache"
	"repro/internal/energy"
	"repro/internal/frontend"
	"repro/internal/offsetstone"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Strategy selects a placement algorithm. The six values mirror the
// paper's evaluation (section IV-A).
type Strategy = placement.StrategyID

// The available placement strategies.
const (
	// AFDOFU is the state-of-the-art baseline (Chen et al.).
	AFDOFU = placement.StrategyAFDOFU
	// DMAOFU is the paper's disjoint-memory-accesses heuristic.
	DMAOFU = placement.StrategyDMAOFU
	// DMAChen pairs DMA with Chen's intra-DBC heuristic.
	DMAChen = placement.StrategyDMAChen
	// DMASR pairs DMA with the ShiftsReduce intra-DBC heuristic.
	DMASR = placement.StrategyDMASR
	// GA is the paper's genetic algorithm (near-optimal, slow).
	GA = placement.StrategyGA
	// RW is the random-walk search baseline.
	RW = placement.StrategyRW
)

// Strategies lists the six paper strategies in the paper's order.
func Strategies() []Strategy { return placement.AllStrategies() }

// StrategyOptions carries the per-strategy tuning knobs (capacity, GA/RW
// parameters) passed to every strategy, including custom ones.
type StrategyOptions = placement.Options

// GAConfig tunes the paper's genetic algorithm (µ, λ, generations,
// tournament size, mutation operators, seed).
type GAConfig = placement.GAConfig

// DefaultGAConfig returns the paper's published GA parameters (µ = λ =
// 100, 200 generations, tournament 4).
func DefaultGAConfig() GAConfig { return placement.DefaultGAConfig() }

// RWConfig tunes the random-walk baseline (iterations, seed).
type RWConfig = placement.RWConfig

// DefaultRWConfig returns the paper's random-walk budget (60 000
// iterations).
func DefaultRWConfig() RWConfig { return placement.DefaultRWConfig() }

// DMA2Opt is the two-opt-refined DMA strategy (DMA inter-DBC placement,
// ShiftsReduce + 2-opt local search on the non-disjoint DBCs). It is not
// part of the paper's evaluation; like GA2Opt it is seeded into every
// Lab's registry alongside the paper strategies, so it is resolvable by
// name everywhere. It never costs more shifts than DMASR.
const DMA2Opt Strategy = placement.StrategyDMATwoOpt

// GA2Opt is the memetic GA extension strategy: the paper's GA with a
// delta-evaluated 2-opt local-improvement mutation mixed into breeding.
const GA2Opt Strategy = placement.StrategyGAMemetic

// Sequence is an access sequence over named program variables.
type Sequence = trace.Sequence

// Benchmark is a named set of access sequences (one placement problem per
// sequence, as in the offset-assignment literature).
type Benchmark = trace.Benchmark

// Placement assigns variables to (DBC, offset) locations.
type Placement = placement.Placement

// ParseSequence parses a whitespace-separated access sequence; each token
// is a variable name, with a "!" suffix marking writes: "a b! a c".
func ParseSequence(text string) (*Sequence, error) {
	s, err := trace.ParseSequence(text)
	if err == nil && s.Len() == 0 {
		return nil, fmt.Errorf("racetrack: empty access sequence")
	}
	return s, err
}

// ParseBenchmark parses the multi-sequence text format (see
// internal/trace): "seq <name>" directives separate sequences.
func ParseBenchmark(name, text string) (*Benchmark, error) {
	return trace.ParseString(name, text)
}

// ReadBenchmark reads the multi-sequence text format from a stream (the
// streaming form of ParseBenchmark; this is what the CLI tools consume).
func ReadBenchmark(name string, r io.Reader) (*Benchmark, error) {
	return trace.Parse(name, r)
}

// WriteBenchmark writes the benchmark in the multi-sequence text format
// ReadBenchmark reads — the inverse conversion, used e.g. by rtmtrace to
// turn a binary trace back into something greppable.
func WriteBenchmark(w io.Writer, b *Benchmark) error {
	return trace.Write(w, b)
}

// ReadAddressTrace reads a raw R/W address trace ("R 0x100" records, one
// per line; see internal/trace) into a single access sequence at the
// given word granularity in bytes.
func ReadAddressTrace(r io.Reader, wordBytes int) (*Sequence, error) {
	return trace.ParseAddressTrace(r, wordBytes)
}

// PlaceOptions configures the Lab's placement and simulation methods
// (Lab.Place, Lab.PlaceBenchmark, Lab.SimulateBenchmark, ...). Zero
// fields take the Lab's defaults.
type PlaceOptions struct {
	// Strategy selects the algorithm; default DMAOFU.
	Strategy Strategy
	// DBCs is the number of domain block clusters (q); 0 = the Lab's
	// device DBC count (4 unless WithDevice chose another).
	DBCs int
	// Capacity is the optional per-DBC word capacity (0 = unlimited).
	Capacity int
	// GA overrides the genetic-algorithm parameters (zero Mu: the
	// paper's budget, µ=λ=100, 200 generations, tournament 4, keeping
	// the caller's other fields, GA.Seed when it is non-zero).
	GA GAConfig
	// RW overrides the random-walk parameters (zero Iterations: the
	// paper's 60 000 iterations, under RW.Seed when it is non-zero).
	RW RWConfig
	// Workers sizes the worker pool Lab.PlaceBenchmark and
	// Lab.SimulateBenchmark fan sequences out on (0 = the Lab's pool
	// size, see WithWorkers; 1 = sequential). Results are deterministic
	// regardless.
	Workers int
	// Ports selects the access-port count of the cost model placements
	// are optimized and scored under. 0 follows the Lab's device (one
	// port unless WithPorts raised it); 1 forces the paper's
	// single-port |x−y| model; larger values price and search under the
	// exact multi-port nearest-port model, matching what Simulate
	// replays on a PortsPerTrack > 1 device.
	Ports int
	// Portfolio lists the strategies Lab.PlacePortfolio races, in
	// deterministic tie-break order. Empty means every strategy of the
	// Lab's registry. Ignored by the single-strategy methods.
	Portfolio []Strategy
	// Window is the accesses-per-window granularity of Lab.PlaceStream
	// (0 selects the default window; see StreamWindow). Ignored by the
	// in-RAM methods.
	Window int
	// Objective selects the cost objective the result is priced under:
	// "shifts", "energy", "runtime" or "faulty:<rate>" (ParseObjective).
	// The Table I parameters come from the effective DBC count, so a
	// derived objective with a non-Table-I DBCs value is an error. Empty
	// falls back to the Lab's WithCostModel model, and then to the raw
	// shift default, which skips pricing entirely (Cost stays nil).
	// Placements and shift counts are bit-identical across objectives —
	// every objective is strictly monotone in shifts — so this only
	// controls the priced Cost fields of the result.
	Objective string
}

// options lowers PlaceOptions to the per-strategy knobs. The port
// layout derives from the iso-capacity device rule for the DBC count
// being placed — the same track length the Lab's Table I device has.
func (o PlaceOptions) options() StrategyOptions {
	return StrategyOptions{Capacity: o.Capacity, GA: o.GA, RW: o.RW, Ports: o.Ports}
}

// PortfolioEntry is one strategy's outcome in a finished portfolio race
// (see Lab.PlacePortfolio).
type PortfolioEntry = placement.PortfolioEntry

// PlaceResult is the outcome of a placement run.
type PlaceResult struct {
	// Placement is the computed layout.
	Placement *Placement
	// Shifts is its total shift cost under the paper's cost model.
	Shifts int64
	// PerDBC attributes shifts to DBCs.
	PerDBC []int64
	// Cost prices the result under the call's effective cost model
	// (PlaceOptions.Objective, else WithCostModel); nil under the raw
	// shift default.
	Cost *Cost
	// PerDBCCost prices each DBC's share of the tally, aligned with
	// PerDBC. nil whenever Cost is.
	PerDBCCost []Cost
}

// BenchmarkPlaceResult is the outcome of placing every sequence of a
// benchmark: one PlaceResult per sequence, in benchmark order, plus the
// total shift count.
type BenchmarkPlaceResult struct {
	Benchmark *Benchmark
	Results   []*PlaceResult
	// TotalShifts sums the per-sequence shift costs (each sequence is an
	// independent placement problem).
	TotalShifts int64
	// TotalCost accumulates the per-sequence priced costs under the
	// call's effective cost model; nil under the raw shift default.
	TotalCost *Cost
}

// DeviceConfig describes a simulated RTM device.
type DeviceConfig = sim.Config

// TableIDevice returns the paper's iso-capacity 4 KiB device for a DBC
// count of 2, 4, 8 or 16, including its Table I timing/energy parameters.
func TableIDevice(dbcs int) (DeviceConfig, error) { return sim.TableIConfig(dbcs) }

// TableIDBCCounts lists the DBC counts of Table I.
func TableIDBCCounts() []int { return rtm.TableIDBCCounts() }

// SimResult is the outcome of simulating a trace on a device.
type SimResult = sim.Result

// EnergyParams exposes the Table I row for a DBC count.
func EnergyParams(dbcs int) (energy.Params, error) { return energy.ForDBCs(dbcs) }

// An Objective names the cost dimension placements are priced — and
// searched — under: raw shifts (the paper's primitive and the default),
// total energy, serialized runtime, or expected runtime when every shift
// slips by one domain with probability p and a detect-and-correct
// controller pays for the corrective shifts, priced with the 1/(1-p)
// bound that rtm's Monte-Carlo FaultyEngine test oracle checks. Every
// objective is strictly monotone in the shift count for a fixed
// configuration, so the optimizers keep their exact shift-minimizing
// trajectories regardless of the objective; only the priced Cost
// reported alongside results changes (DESIGN.md §15).
type Objective = placement.Objective

// The supported objectives.
const (
	// ObjectiveShifts is the raw shift count (the default).
	ObjectiveShifts = placement.ObjectiveShifts
	// ObjectiveEnergy is total (dynamic + leakage) energy in pJ.
	ObjectiveEnergy = placement.ObjectiveEnergy
	// ObjectiveRuntime is serialized-access runtime in ns.
	ObjectiveRuntime = placement.ObjectiveRuntime
	// ObjectiveFaulty is expected runtime under a per-shift slip rate;
	// spelled "faulty:<rate>" in specs.
	ObjectiveFaulty = placement.ObjectiveFaulty
)

// ParseObjective parses an objective spec — "shifts", "energy",
// "runtime" or "faulty:<rate>" with rate in [0,1) — as accepted by
// PlaceOptions.Objective, the CLIs and the placement service. The empty
// string parses as ObjectiveShifts; the returned rate is nonzero only
// for faulty specs.
func ParseObjective(spec string) (Objective, float64, error) {
	return placement.ParseObjective(spec)
}

// A Tally is the event totals a Cost is priced from: the placement's
// shift count plus the trace's (placement-independent) read and write
// counts.
type Tally = placement.Tally

// TallyOf builds the pricing tally for a placement of s that costs the
// given shift count: the read/write totals come from the sequence, the
// shift count from the placement.
func TallyOf(s *Sequence, shifts int64) Tally { return placement.TallyOf(s, shifts) }

// A Cost is a placement's tally priced into every cost dimension at
// once: shift/read/write counts, expected fault-correction shifts,
// runtime, dynamic and leakage energy, and the scalar the objective
// selects.
type Cost = placement.Cost

// A CostModel prices shift/read/write tallies under one objective and
// one Table I parameter set. Models are immutable and safe for
// concurrent use; construct with NewCostModel (or install one Lab-wide
// with WithCostModel).
type CostModel = placement.CostModel

// NewCostModel builds a pricing model from an objective, a Table I
// parameter set (see EnergyParams; a zero value is accepted only for
// ObjectiveShifts) and the per-shift slip rate p of ObjectiveFaulty's
// fault model, in [0,1).
// Construction fails unless the objective's scalar is strictly
// increasing in the shift count — the invariant that lets the search
// layers optimize raw shifts on the model's behalf.
func NewCostModel(objective Objective, params energy.Params, faultRate float64) (*CostModel, error) {
	return placement.NewCostModel(objective, params, faultRate)
}

// DefaultCostModel returns the raw-shift model: the zero-overhead
// default that prices exactly what the paper's evaluation counts.
func DefaultCostModel() *CostModel { return placement.DefaultCostModel() }

// ShiftCost evaluates a placement's shift cost without simulation by
// replaying the access stream — the repository's cost oracle. Callers
// that price many placements of one sequence should build a CostKernel
// once instead.
func ShiftCost(s *Sequence, p *Placement) (int64, error) { return placement.ShiftCost(s, p) }

// CostKernel is the O(nnz) full-cost evaluator: a one-pass summary of a
// sequence from which the exact shift cost of any placement is computed
// without replaying the access stream (bit-identical to ShiftCost; see
// DESIGN.md §8). Build one per sequence and share it freely — it is
// immutable and safe for concurrent use. The engine and the Lab hand
// kernels only to the built-in GA searches (GA, GA-2opt); a custom
// strategy that prices many placements builds its own with
// NewCostKernel, and StrategyOptions.Kernel reaches it only when its
// caller sets one.
type CostKernel = placement.CostKernel

// NewCostKernel summarizes the sequence into a cost kernel.
func NewCostKernel(s *Sequence) *CostKernel { return placement.NewCostKernel(s) }

// BenchmarkNames lists the synthetic OffsetStone workloads bundled with
// the library (the 31 applications named in the paper's Fig. 4).
func BenchmarkNames() []string { return offsetstone.Names() }

// GenerateBenchmark deterministically generates the named synthetic
// OffsetStone workload (see internal/offsetstone for the trace model).
func GenerateBenchmark(name string) (*Benchmark, error) { return offsetstone.Generate(name) }

// CompileTrace compiles a program in the miniature frontend language
// (assignments over scalar locals, bounded loops, one "func" block per
// access sequence — see internal/frontend) into a benchmark. This is how
// offset-assignment traces arise in a real compiler flow.
func CompileTrace(name, source string) (*Benchmark, error) {
	return frontend.Compile(name, source)
}

// CycleSimulator is the cycle view of a device (see internal/sim): the
// same replay and shift engines as Lab.Simulate, with every access
// scheduled on the device's banks in whole controller cycles. It holds
// no state between runs; one simulator serves any number of calls.
type CycleSimulator = sim.CycleSimulator

// CycleStats reports a cycle-view run: the completion cycle, the event
// counts (identical to Lab.Simulate's), queue waits and per-bank load.
type CycleStats = sim.CycleStats

// NewCycleSimulator builds the cycle view of a Table I configuration at
// the given controller clock. Table I latencies round up to whole
// cycles, at least one per operation.
func NewCycleSimulator(dbcs int, clockGHz float64) (*CycleSimulator, error) {
	cfg, err := sim.TableIConfig(dbcs)
	if err != nil {
		return nil, err
	}
	return sim.NewCycleSimulator(cfg, clockGHz)
}

// NewBankedCycleSimulator is NewCycleSimulator with the iso-capacity DBCs
// spread over `banks` independent banks (dbcs must divide evenly), so
// open-loop request streams can overlap shifting across banks.
func NewBankedCycleSimulator(dbcs, banks int, clockGHz float64) (*CycleSimulator, error) {
	cfg, err := sim.TableIConfig(dbcs)
	if err != nil {
		return nil, err
	}
	if banks <= 0 || dbcs%banks != 0 {
		return nil, fmt.Errorf("racetrack: %d banks must evenly divide %d DBCs", banks, dbcs)
	}
	cfg.Geometry.Banks = banks
	cfg.Geometry.DBCsPerSubarray = dbcs / banks
	return sim.NewCycleSimulator(cfg, clockGHz)
}

// SimulateCycles replays the sequence with the placement on the cycle
// view. serialized issues each access when the previous one completes
// (the closed-loop CPU model: Cycles is the sum of the per-access
// times); otherwise every access is issued at cycle 0 and the banks
// serve their queues in parallel. Like Lab.Simulate it accepts DBCs
// fuller than the track and grows the track to fit.
func SimulateCycles(cs *CycleSimulator, s *Sequence, p *Placement, serialized bool) (CycleStats, error) {
	return sim.RunCycles(cs, s, p, serialized)
}

// RTMCache is a set-associative cache with an RTM data array (TapeCache
// lineage; see internal/cache): one set per DBC, one way per domain, so
// hits pay shift costs too.
type RTMCache = cache.Cache

// RTMCacheConfig configures an RTMCache.
type RTMCacheConfig = cache.Config

// Cache insertion policies.
const (
	// CacheInsertLRU is classic least-recently-used replacement.
	CacheInsertLRU = cache.InsertLRU
	// CacheInsertNearPort victimizes the cheapest-to-align way among the
	// colder half — the shift-aware policy.
	CacheInsertNearPort = cache.InsertNearPort
)

// NewRTMCache builds an RTM-backed cache.
func NewRTMCache(cfg RTMCacheConfig) (*RTMCache, error) { return cache.New(cfg) }
