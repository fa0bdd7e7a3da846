package placement

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/trace"
)

// GAConfig carries the genetic-algorithm parameters of section III-C of
// the paper. DefaultGAConfig returns the published values.
type GAConfig struct {
	// Mu is the population size carried between generations (µ = 100).
	Mu int
	// Lambda is the number of offspring per generation (λ = 100).
	Lambda int
	// Generations is the number of iterations (200 in the evaluation;
	// 2000 for the long-run optimality probe).
	Generations int
	// TournamentK is the tournament size for selection (4).
	TournamentK int
	// MutationRate is the per-offspring probability of applying one
	// mutation after crossover. The paper does not publish this value;
	// 0.5 is used and ablated in bench_test.go.
	MutationRate float64
	// MoveWeight, TransposeWeight, PermuteWeight skew the choice between
	// the three mutation operators. The paper skews the destructive
	// whole-DBC permutation against the others "in a ratio of 10 : 3".
	MoveWeight      int
	TransposeWeight int
	PermuteWeight   int
	// ImproveWeight, when positive, adds a fourth, memetic mutation
	// operator to the weighted choice: one delta-evaluated 2-opt
	// improvement sweep (DeltaEvaluator, delta.go) over the offset order
	// of one random DBC. Each candidate move costs O(freq) instead of a
	// full trace replay, so the operator is affordable inside the
	// breeding loop. Not part of the paper's GA; 0 (the default)
	// disables it. The "GA-2opt" registry strategy enables it.
	ImproveWeight int
	// Seed drives the deterministic PRNG.
	Seed int64
	// Seeds optionally injects heuristic placements into the initial
	// population (the paper seeds with its heuristic results). A seed
	// must place every accessed variable exactly once into q DBCs.
	Seeds []*Placement
	// Capacity, when positive, rejects DBC overflows during search.
	Capacity int
	// Workers evaluates offspring fitness on this many goroutines
	// (0 or 1 = sequential). Search decisions stay on one PRNG stream, so
	// results are deterministic for a fixed Seed regardless of Workers.
	Workers int
	// Kernel optionally supplies a pre-built cost kernel for the
	// sequence; fitness evaluation runs through it in O(nnz) per
	// individual. When nil (or built from a different sequence) the GA
	// builds its own — the build is O(accesses) once, against thousands
	// of per-individual replays it replaces. Costs are bit-identical to
	// the replay path either way.
	Kernel *CostKernel
	// Port, when non-nil, switches the objective to the multi-port cost
	// model: fitness is the exact nearest-port replay (replay.go) and
	// the memetic improve operator polishes with the port-aware
	// evaluator, so the GA searches the objective the device will
	// realize instead of the single-port proxy. The kernel and its DBC
	// cost cache only price the single-port model and are bypassed.
	// Strategies resolve this from Options.Ports; nil is the paper's
	// single-port model.
	Port *PortModel
	// Islands, when > 1, switches to the island model (islands.go): that
	// many independent populations evolve on derived seeds and exchange
	// elites over a ring every MigrationEvery generations, with islands
	// running concurrently on up to Workers goroutines. Generations,
	// Mu and Lambda are per island. Results are bit-identical for a
	// fixed (Islands, MigrationEvery, Elites, Seed) tuple regardless of
	// Workers and goroutine scheduling. 0 or 1 is the serial GA.
	Islands int
	// MigrationEvery is the island-model migration interval in
	// generations (0 means DefaultMigrationEvery). Ignored unless
	// Islands > 1.
	MigrationEvery int
	// Elites is the number of top individuals each island sends to its
	// ring successor per migration (0 means DefaultElites, clamped to
	// Mu). Ignored unless Islands > 1.
	Elites int
	// IslandProgress, when non-nil and Islands > 1, receives each
	// island's generation count and best cost after every migration
	// round. It is invoked from the coordinating goroutine between
	// rounds (islands ascending), so it needs no locking of its own.
	IslandProgress func(island, generation int, best int64)
	// Cost, when non-nil, names the objective the search optimizes for.
	// Fitness remains the int64 shift count (the kernel/delta/port hot
	// paths are untouched): every constructible objective is strictly
	// monotone in shifts for a fixed configuration (costmodel.go), so
	// CostModel.Better is exactly `a < b` and selection, elitism and the
	// best-so-far trajectory are bit-identical across objectives. The
	// comparison sites route through better() to keep that reduction in
	// one place; the model prices the final result at the reporting
	// boundary, not here. nil is the raw shift objective.
	Cost *CostModel
}

// better reports whether fitness a beats fitness b under the configured
// objective. Fitness is the shift count even when Cost carries a derived
// objective (energy, runtime, faulty) — the monotone reduction makes
// CostModel.Better coincide with `a < b`, so trajectories (and the
// determinism tests that pin them) are identical across objectives.
// Ties keep the earlier individual, as the serial GA always has.
func (cfg *GAConfig) better(a, b int64) bool {
	if m := cfg.Cost; m != nil {
		return m.Better(a, b)
	}
	return a < b
}

// DefaultMigrationEvery is the island-model migration interval used when
// GAConfig.MigrationEvery is 0: long enough for islands to diverge
// between exchanges, short enough that a good elite spreads around a
// small ring within a default 200-generation run.
const DefaultMigrationEvery = 10

// DefaultElites is the per-migration elite count used when
// GAConfig.Elites is 0.
const DefaultElites = 2

// DefaultGAConfig returns the paper's published GA parameters.
func DefaultGAConfig() GAConfig {
	return GAConfig{
		Mu:              100,
		Lambda:          100,
		Generations:     200,
		TournamentK:     4,
		MutationRate:    0.5,
		MoveWeight:      10,
		TransposeWeight: 10,
		PermuteWeight:   3,
		Seed:            1,
	}
}

// GAResult reports the best placement found and search statistics.
type GAResult struct {
	Best        *Placement
	Cost        int64
	Generations int
	Evaluations int64
	// History records the best cost after every generation, for
	// convergence plots.
	History []int64
}

// GAContext runs the paper's µ+λ genetic algorithm over complete
// placements for the sequence into q DBCs, with cooperative
// cancellation: the context is checked between generations (and, under
// the island model, between migration rounds), so a Lab.Place deadline
// interrupts a long run instead of being ignored. On cancellation it
// returns the best placement found so far together with the context's
// error — callers that can use a partial result get one, callers that
// cannot treat it as a plain failure. With cfg.Islands > 1 the search
// runs the island model of islands.go.
func GAContext(ctx context.Context, s *trace.Sequence, q int, cfg GAConfig) (*GAResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Islands > 1 {
		return islandGA(ctx, s, q, cfg)
	}
	r, err := newGARun(s, q, cfg)
	if err != nil {
		return nil, err
	}
	if r.trivial != nil {
		return r.trivial, nil
	}
	for gen := 0; gen < cfg.Generations; gen++ {
		if err := ctx.Err(); err != nil {
			return r.result(), err
		}
		r.step()
	}
	return r.result(), nil
}

// genome is one GA individual (DESIGN.md §8): the placement's per-DBC
// member rows, its own var → (DBC, offset) lookup, and its per-DBC shift
// costs. Every operator keeps the lookup in step with the rows and marks
// the DBCs it touches dirty; fitness re-prices only those. That is exact
// because a DBC's cost depends only on its own members and their order
// (a stencil is charged against a same-DBC predecessor only): a DBC an
// operator did not touch still costs what it cost in the parent. A
// priced genome is immutable and may fill several population and
// offspring slots (a child no operator touched is its parent); its
// storage returns to the run's free list once selection drops it.
type genome struct {
	Placement
	lookup Lookup
	cost   []int64 // cost[d] is DBC d's single-port cost unless dirty[d]
	dirty  []bool
	total  int64  // fitness: the sum of cost once priced
	epoch  uint64 // the last selection sweep that found the genome alive
}

// newGenome wraps a placement and its lookup in a genome whose every
// DBC is still to be priced.
func newGenome(p *Placement, l *Lookup) *genome {
	q := len(p.DBC)
	return &genome{Placement: *p, lookup: *l, cost: make([]int64, q), dirty: slices.Repeat([]bool{true}, q)}
}

// copyFrom makes g a copy of the priced genome src, keeping g's storage:
// the child inherits every per-DBC cost, and no DBC is dirty yet.
func (g *genome) copyFrom(src *genome) {
	for d, row := range src.DBC {
		g.DBC[d] = append(g.DBC[d][:0], row...)
	}
	copy(g.lookup.DBCOf, src.lookup.DBCOf)
	copy(g.lookup.Offset, src.lookup.Offset)
	copy(g.cost, src.cost)
	clear(g.dirty)
	g.total = src.total
}

// move takes variable v out of its DBC, closing the gap, and appends it
// to DBC to.
func (g *genome) move(v, to int) {
	from, i := g.lookup.DBCOf[v], g.lookup.Offset[v]
	row := append(g.DBC[from][:i], g.DBC[from][i+1:]...)
	for ; i < len(row); i++ {
		g.lookup.Offset[row[i]] = i
	}
	g.DBC[from] = row
	g.lookup.DBCOf[v], g.lookup.Offset[v] = to, len(g.DBC[to])
	g.DBC[to] = append(g.DBC[to], v)
	g.dirty[from], g.dirty[to] = true, true
}

// renumber rewrites the offsets of DBC d's members after a reorder and
// marks the DBC dirty.
func (g *genome) renumber(d int) {
	for off, v := range g.DBC[d] {
		g.lookup.Offset[v] = off
	}
	g.dirty[d] = true
}

// gaRun is one GA population mid-search: the serial GA is a loop of
// step() calls over a single gaRun, and the island model advances one
// gaRun per island (islands.go), migrating elites between rounds. All
// run-long state (PRNG stream, kernel, fitness evaluators, genome free
// list, selection buffers) lives here, so stepping allocates nothing
// once the free list is warm, and a run split into rounds is
// bit-identical to an uninterrupted one.
type gaRun struct {
	s    *trace.Sequence
	q    int
	cfg  GAConfig
	rng  *rand.Rand
	vars []int
	kern *CostKernel

	// fit[0] prices serially; with Workers > 1 each fitness goroutine
	// owns one entry.
	fit []*fitness

	pop                   []*genome
	best                  *genome
	next, pool, offspring []*genome
	free                  []*genome
	epoch                 uint64
	eligible              []int // mutation scratch: DBC candidates

	gens      int
	evalCount int64
	history   []int64

	// trivial short-circuits a sequence with no accessed variables: the
	// search space is a single empty placement and stepping is
	// meaningless.
	trivial *GAResult
}

// newGARun validates the configuration and initializes the population
// (heuristic seeds first, then random placements), exactly as the serial
// GA always has.
func newGARun(s *trace.Sequence, q int, cfg GAConfig) (*gaRun, error) {
	if q <= 0 {
		return nil, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	if cfg.Mu <= 0 || cfg.Lambda <= 0 || cfg.Generations < 0 || cfg.TournamentK <= 0 {
		return nil, fmt.Errorf("placement: invalid GA config %+v", cfg)
	}
	a := trace.Analyze(s)
	vars := a.ByFirstUse() // variables indexed by appearance order, as the crossover requires
	if len(vars) == 0 {
		return &gaRun{trivial: &GAResult{Best: NewEmpty(q)}}, nil
	}
	// The history preallocation is capped: a deadline-bounded run may ask
	// for a huge generation budget and be cancelled after a handful, and
	// an eager cfg.Generations-sized buffer would be allocated up front.
	histCap := cfg.Generations
	if histCap > 4096 {
		histCap = 4096
	}
	r := &gaRun{
		s:       s,
		q:       q,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		vars:    vars,
		history: make([]int64, 0, histCap),
	}

	// Single-port fitness runs through the cost kernel; cfg.Kernel shares
	// one build across callers (the Lab's kernel cache, repeated GA runs
	// on one sequence, the islands of one island run). Under a multi-port
	// objective the kernel cannot price the stateful model and fitness is
	// the exact multi-port replay instead.
	if cfg.Port == nil {
		r.kern = kernelFor(cfg.Kernel, s)
	}
	r.fit = make([]*fitness, max(cfg.Workers, 1))
	for w := range r.fit {
		r.fit[w] = &fitness{s: s, port: cfg.Port, track: make([]int, q)}
		if cfg.Port == nil {
			r.fit[w].cache = newDBCCostCache(r.kern)
		}
	}

	seeds := cfg.Seeds[:min(len(cfg.Seeds), cfg.Mu)]
	placed := (cfg.Mu - len(seeds)) * len(vars)
	for _, p := range seeds {
		if err := r.checkSeed(p); err != nil {
			return nil, err
		}
		placed += p.NumPlaced()
	}
	slab := newGenomeSlab(cfg.Mu, q, s.NumVars(), placed)
	r.pop = make([]*genome, 0, cfg.Mu)
	for _, p := range seeds {
		g := slab.next()
		slab.setRows(g, p)
		for d, row := range g.DBC {
			for off, v := range row {
				g.lookup.DBCOf[v], g.lookup.Offset[v] = d, off
			}
		}
		r.pop = append(r.pop, g)
	}
	draw := NewEmpty(q)
	for len(r.pop) < cfg.Mu {
		g := slab.next()
		randomPlacementLookup(draw, &g.lookup, r.rng, vars, cfg.Capacity)
		slab.setRows(g, draw)
		r.pop = append(r.pop, g)
	}
	for _, g := range r.pop {
		r.fit[0].price(g)
	}
	r.evalCount = int64(len(r.pop))

	r.best = r.pop[0]
	for _, g := range r.pop[1:] {
		if r.cfg.better(g.total, r.best.total) {
			r.best = g
		}
	}
	return r, nil
}

// checkSeed checks a caller's seed placement. A seed must place every
// accessed variable exactly once into q DBCs: the operators move
// variables by their lookup entries.
func (r *gaRun) checkSeed(p *Placement) error {
	if p.NumDBCs() != r.q {
		return fmt.Errorf("placement: seed has %d DBCs, want %d", p.NumDBCs(), r.q)
	}
	if err := p.Validate(r.s, 0); err != nil {
		return fmt.Errorf("placement: GA seed: %w", err)
	}
	return nil
}

// genomeSlab carves the initial population's genomes from one buffer
// per kind: genome values, row headers, row members, lookups, costs
// and dirty marks. Each row is cut to its exact length with a full
// slice expression, so an operator's append reallocates the row instead
// of writing into its neighbour.
type genomeSlab struct {
	q, numVars int
	gs         []genome
	rows       [][]int
	members    []int
	lookup     []int
	cost       []int64
	dirty      []bool
}

// newGenomeSlab sizes a slab for count genomes of q DBCs over numVars
// variables that place placed variables between them.
func newGenomeSlab(count, q, numVars, placed int) *genomeSlab {
	lookup := slices.Repeat([]int{-1}, 2*count*numVars)
	return &genomeSlab{
		q: q, numVars: numVars,
		gs:      make([]genome, count),
		rows:    make([][]int, count*q),
		members: make([]int, 0, placed),
		lookup:  lookup,
		cost:    make([]int64, count*q),
		dirty:   slices.Repeat([]bool{true}, count*q),
	}
}

// next returns the slab's next genome: no DBC placed yet, every DBC
// dirty, and a lookup with no variable placed.
func (sl *genomeSlab) next() *genome {
	q, n := sl.q, sl.numVars
	g := &sl.gs[0]
	sl.gs = sl.gs[1:]
	g.DBC, sl.rows = sl.rows[:q:q], sl.rows[q:]
	g.lookup = Lookup{DBCOf: sl.lookup[:n:n], Offset: sl.lookup[n : 2*n : 2*n]}
	sl.lookup = sl.lookup[2*n:]
	g.cost, sl.cost = sl.cost[:q:q], sl.cost[q:]
	g.dirty, sl.dirty = sl.dirty[:q:q], sl.dirty[q:]
	return g
}

// setRows copies p's rows into g, carving each from the member buffer.
func (sl *genomeSlab) setRows(g *genome, p *Placement) {
	for d, row := range p.DBC {
		lo := len(sl.members)
		sl.members = append(sl.members, row...)
		hi := len(sl.members)
		g.DBC[d] = sl.members[lo:hi:hi]
	}
}

// child returns a copy of parent in recycled storage.
func (r *gaRun) child(parent *genome) *genome {
	var g *genome
	if n := len(r.free); n > 0 {
		g, r.free = r.free[n-1], r.free[:n-1]
	} else {
		g = newGenome(NewEmpty(r.q), newLookup(r.s.NumVars()))
	}
	g.copyFrom(parent)
	return g
}

// step advances the population by one generation.
func (r *gaRun) step() {
	cfg := &r.cfg
	// Breed the whole offspring batch first (sequential, one PRNG
	// stream), then evaluate fitness — possibly in parallel.
	off := r.offspring[:0]
	for len(off) < cfg.Lambda {
		p1 := tournament(r.rng, r.pop, cfg.TournamentK, cfg)
		p2 := tournament(r.rng, r.pop, cfg.TournamentK, cfg)
		c1, c2 := r.crossover(p1, p2)
		for _, c := range [2]*genome{c1, c2} {
			owned := c != p1 && c != p2 // else crossover left it its parent
			if len(off) == cfg.Lambda {
				if owned {
					r.free = append(r.free, c)
				}
				break
			}
			if r.rng.Float64() < cfg.MutationRate {
				if !owned {
					c = r.child(c)
				}
				r.mutate(c)
			}
			off = append(off, c)
		}
	}
	r.offspring = off
	if len(r.fit) > 1 {
		priceParallel(r.fit, off)
	} else {
		for _, g := range off {
			r.fit[0].price(g)
		}
	}
	r.evalCount += int64(len(off))

	// µ+λ selection via tournaments over the combined pool, with
	// elitism: the best individual always survives.
	pool := append(append(r.pool[:0], r.pop...), off...)
	poolBest := pool[0]
	for _, g := range pool[1:] {
		if cfg.better(g.total, poolBest.total) {
			poolBest = g
		}
	}
	next := append(r.next[:0], poolBest)
	for len(next) < cfg.Mu {
		next = append(next, tournament(r.rng, pool, cfg.TournamentK, cfg))
	}
	r.pop, r.next, r.pool = next, r.pop, pool
	if cfg.better(poolBest.total, r.best.total) {
		r.best = poolBest
	}
	r.gens++
	r.history = append(r.history, r.best.total)
	r.recycle()
}

// recycle returns every genome of the µ+λ pool that selection dropped to
// the free list. One epoch mark over the survivors and the pinned
// all-time best finds the dead in O(µ+λ); a freed genome is marked too,
// so one that filled several pool slots is freed once.
func (r *gaRun) recycle() {
	r.epoch++
	for _, g := range r.pop {
		g.epoch = r.epoch
	}
	r.best.epoch = r.epoch
	for _, g := range r.pool {
		if g.epoch != r.epoch {
			g.epoch = r.epoch
			r.free = append(r.free, g)
		}
	}
}

// result packages the run's best-so-far state. Generations reports the
// generations actually stepped, so a cancelled run is distinguishable
// from a completed one.
func (r *gaRun) result() *GAResult {
	return &GAResult{
		Best:        r.best.Clone(),
		Cost:        r.best.total,
		Generations: r.gens,
		Evaluations: r.evalCount,
		History:     r.history,
	}
}

// fitness prices genomes under the run's objective. Each pricing
// goroutine owns one: the DBC cost cache (single-port) or the replay
// state (multi-port) is private scratch, while the kernel and the port
// model are shared read-only. Living for the whole run, a cache keeps
// its cross-generation hits in parallel mode exactly as serially.
type fitness struct {
	s     *trace.Sequence
	cache *dbcCostCache
	port  *PortModel
	track []int
}

// price prices g's dirty DBCs and sets its fitness. A genome with no
// dirty DBC keeps the total it inherited and is only read, which lets an
// offspring that is its parent itself sit in a parallel batch. The
// single-port objective goes through the set-keyed cache
// (dbcCostCache.price). No kernel prices the stateful multi-port model:
// there one replay prices the whole genome, and cost is left unused.
func (f *fitness) price(g *genome) {
	if !slices.Contains(g.dirty, true) {
		return
	}
	if f.port != nil {
		// A genome places every variable, so no access is unplaced.
		setCold(f.track)
		g.total, _ = f.port.total(f.s, &g.lookup, f.track, math.MaxInt64)
		clear(g.dirty)
		return
	}
	f.cache.price(g)
	g.total = 0
	for _, c := range g.cost {
		g.total += c
	}
}

// priceParallel prices an offspring batch on one goroutine per fitness
// evaluator. Each offspring is priced by exactly one goroutine, which
// writes only that genome; costs are identical to the serial path
// (caches change speed, never values).
func priceParallel(fit []*fitness, batch []*genome) {
	var wg sync.WaitGroup
	next := make(chan *genome)
	for _, f := range fit[:min(len(fit), len(batch))] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := range next {
				f.price(g)
			}
		}()
	}
	for _, g := range batch {
		next <- g
	}
	close(next)
	wg.Wait()
}

// tournament draws k individuals with replacement and keeps the fittest
// under the configured objective (raw shift order for every objective —
// see GAConfig.better).
func tournament(rng *rand.Rand, pop []*genome, k int, cfg *GAConfig) *genome {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < k; i++ {
		c := pop[rng.Intn(len(pop))]
		if cfg.better(c.total, best.total) {
			best = c
		}
	}
	return best
}

// crossover implements the paper's 2-fold crossover and returns the two
// children: variables are indexed in sequence-appearance order; a
// contiguous index range [f, l] is chosen and the DBC assignments of
// those variables are swapped between the parents. A swapped variable is
// removed from its old DBC and appended to the end of its new DBC, so
// within-DBC orders of untouched variables are preserved and both
// children remain valid placements. When capacity is positive, a move
// that would overflow the target DBC is skipped for that child (the
// other child may still take its half of the swap). Children are copied
// on write: a child no move reaches is its parent itself, so a crossover
// between converged parents copies nothing.
func (r *gaRun) crossover(p1, p2 *genome) (c1, c2 *genome) {
	c1, c2 = p1, p2
	vars, capacity := r.vars, r.cfg.Capacity
	if len(vars) < 2 {
		return c1, c2
	}
	f := r.rng.Intn(len(vars))
	l := r.rng.Intn(len(vars))
	if f > l {
		f, l = l, f
	}
	for _, v := range vars[f : l+1] {
		d1, d2 := c1.lookup.DBCOf[v], c2.lookup.DBCOf[v]
		if d1 == d2 {
			continue
		}
		if capacity <= 0 || len(c1.DBC[d2]) < capacity {
			if c1 == p1 {
				c1 = r.child(p1)
			}
			c1.move(v, d2)
		}
		if capacity <= 0 || len(c2.DBC[d1]) < capacity {
			if c2 == p2 {
				c2 = r.child(p2)
			}
			c2.move(v, d1)
		}
	}
	return c1, c2
}

// mutate applies one of the paper's three mutation operators — move a
// variable to the end of another DBC, transpose two variables inside one
// DBC, or randomly permute every DBC — or, when ImproveWeight is positive,
// the memetic local-improvement operator, chosen with the configured
// weights.
func (r *gaRun) mutate(g *genome) {
	cfg := &r.cfg
	total := cfg.MoveWeight + cfg.TransposeWeight + cfg.PermuteWeight + cfg.ImproveWeight
	if total <= 0 {
		return
	}
	switch x := r.rng.Intn(total); {
	case x < cfg.MoveWeight:
		r.mutateMove(g)
	case x < cfg.MoveWeight+cfg.TransposeWeight:
		r.mutateTranspose(g)
	case x < cfg.MoveWeight+cfg.TransposeWeight+cfg.PermuteWeight:
		r.mutatePermute(g)
	default:
		r.mutateImprove(g)
	}
}

// pickDBC draws a DBC uniformly among those holding at least min
// variables.
func (r *gaRun) pickDBC(g *genome, min int) (int, bool) {
	r.eligible = r.eligible[:0]
	for d, row := range g.DBC {
		if len(row) >= min {
			r.eligible = append(r.eligible, d)
		}
	}
	if len(r.eligible) == 0 {
		return 0, false
	}
	return r.eligible[r.rng.Intn(len(r.eligible))], true
}

func (r *gaRun) mutateMove(g *genome) {
	q := len(g.DBC)
	if q < 2 {
		return
	}
	// Pick a random variable uniformly over placed variables.
	n := g.NumPlaced()
	if n == 0 {
		return
	}
	k := r.rng.Intn(n)
	from := 0
	for k >= len(g.DBC[from]) {
		k -= len(g.DBC[from])
		from++
	}
	to := r.rng.Intn(q - 1)
	if to >= from {
		to++
	}
	if c := r.cfg.Capacity; c > 0 && len(g.DBC[to]) >= c {
		return
	}
	g.move(g.DBC[from][k], to)
}

func (r *gaRun) mutateTranspose(g *genome) {
	d, ok := r.pickDBC(g, 2)
	if !ok {
		return
	}
	row := g.DBC[d]
	i := r.rng.Intn(len(row))
	j := r.rng.Intn(len(row) - 1)
	if j >= i {
		j++
	}
	row[i], row[j] = row[j], row[i]
	g.lookup.Offset[row[i]], g.lookup.Offset[row[j]] = i, j
	g.dirty[d] = true
}

func (r *gaRun) mutatePermute(g *genome) {
	for d, row := range g.DBC {
		r.rng.Shuffle(len(row), func(i, j int) { row[i], row[j] = row[j], row[i] })
		g.renumber(d)
	}
}

// mutateImprove runs one first-improvement 2-opt sweep over the offset
// order of one random DBC with at least three variables, evaluated
// incrementally. It can only keep or lower the individual's fitness; the
// GA's exploration pressure comes from the other operators. The
// DeltaEvaluator is derived from the run's kernel in O(nnz) instead of
// replaying the access stream. Under a multi-port objective the sweep
// runs on the port-aware evaluator instead, so the polish improves the
// same cost the fitness function charges.
func (r *gaRun) mutateImprove(g *genome) {
	d, ok := r.pickDBC(g, 3)
	if !ok {
		return
	}
	var e polisher
	if pm := r.cfg.Port; pm != nil {
		e = NewPortDeltaEvaluator(r.s, g.DBC[d], pm)
	} else {
		e = NewDeltaEvaluatorFromKernel(r.kern, g.DBC[d])
	}
	if order := polish(e, 1); order != nil {
		copy(g.DBC[d], order)
		g.renumber(d)
	}
}

// RWConfig configures the random-walk search baseline.
type RWConfig struct {
	// Iterations is the number of random placements evaluated (60 000 in
	// the paper, the upper bound on individuals the GA could evaluate).
	// Zero means DefaultRWConfig's budget.
	Iterations int
	Seed       int64
}

// DefaultRWConfig returns the paper's random-walk parameters.
func DefaultRWConfig() RWConfig { return RWConfig{Iterations: 60000, Seed: 1} }

// RandomWalk is the RW strategy: it draws opts.RW.Iterations random
// placements into q DBCs (at most opts.Capacity variables per DBC when
// that is positive), each DBC in random order, and returns the cheapest
// under the port model opts selects for q. A zero opts.RW.Iterations
// means DefaultRWConfig's budget, under opts.RW.Seed when that is
// non-zero.
func RandomWalk(s *trace.Sequence, q int, opts Options) (*Placement, int64, error) {
	if q <= 0 {
		return nil, 0, fmt.Errorf("placement: q must be positive, got %d", q)
	}
	cfg := opts.RW
	if cfg.Iterations == 0 {
		seed := cfg.Seed
		cfg = DefaultRWConfig()
		if seed != 0 {
			cfg.Seed = seed
		}
	}
	if cfg.Iterations < 0 {
		return nil, 0, fmt.Errorf("placement: iterations must be positive, got %d", cfg.Iterations)
	}
	pm, err := opts.PortModelFor(q)
	if err != nil {
		return nil, 0, err
	}
	a := trace.Analyze(s)
	vars := a.ByFirstUse()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lookup := newLookup(s.NumVars())

	// One placement buffer is reused across all iterations; only
	// improvements (O(log iterations) of them in expectation) are
	// snapshotted. Evaluation is bounded by the best cost so far: a
	// placement that cannot win is discarded as soon as its partial sum
	// proves it (bounded evaluation is exact below the bound, and at or
	// above the bound the placement is not strictly better, so the
	// best-so-far sequence — and therefore the result — is identical to
	// full evaluation). Random placements are scattered, the case where
	// the linear replay beats the stencil kernel's candidate walks (see
	// DESIGN.md §8), so every candidate is priced by replay.
	sc := trackPool.Get().(*trackScratch)
	defer trackPool.Put(sc)

	var best *Placement
	bestCost := int64(math.MaxInt64)
	p := NewEmpty(q)
	for it := 0; it < cfg.Iterations; it++ {
		randomPlacementLookup(p, lookup, rng, vars, opts.Capacity)
		// A random placement places every variable, so no access is
		// unplaced.
		c, _ := replayTotal(s, lookup, pm, sc.cold(q), bestCost)
		// c is exact whenever it is below bestCost (bounded evaluation),
		// so the walk keeps the same best under every objective: each is
		// strictly monotone in shifts (costmodel.go).
		if best == nil || c < bestCost {
			best, bestCost = p.Clone(), c
		}
	}
	return best, bestCost, nil
}

// randomPlacementLookup draws a random placement into p, reusing its
// DBC slices: each variable goes to a uniform random DBC (the next one
// with room when capacity is positive), then every DBC is shuffled. The
// inverse lookup is maintained alongside — assignments are recorded as
// they are drawn and offsets are patched inside the shuffle swaps — so
// neither the random walk nor the GA's initial population pays a
// separate inversion pass. Only the placed variables' lookup entries are
// written; the caller's lookup must start out all -1 and be reserved for
// this placement (unplaced variables are never read by the evaluators
// because they are never accessed).
func randomPlacementLookup(p *Placement, l *Lookup, rng *rand.Rand, vars []int, capacity int) {
	q := len(p.DBC)
	for d := range p.DBC {
		p.DBC[d] = p.DBC[d][:0]
	}
	for _, v := range vars {
		d := rng.Intn(q)
		if capacity > 0 {
			for tries := 0; len(p.DBC[d]) >= capacity && tries < q; tries++ {
				d = (d + 1) % q
			}
		}
		l.DBCOf[v] = d
		l.Offset[v] = len(p.DBC[d])
		p.DBC[d] = append(p.DBC[d], v)
	}
	for _, d := range p.DBC {
		rng.Shuffle(len(d), func(i, j int) {
			d[i], d[j] = d[j], d[i]
			l.Offset[d[i]] = i
			l.Offset[d[j]] = j
		})
	}
}
