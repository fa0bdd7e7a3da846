package placement

// dbcCostCache memoizes per-DBC partial costs by DBC content. A DBC's
// contribution to the full shift cost depends only on its own ordered
// member list (CostDBC), and population-based search re-prices the same
// DBC contents constantly: operators rebuild contents an earlier
// individual already had, and converged populations are near-duplicates
// of one another. Caching per DBC — rather than per placement — turns
// that sharing into O(|DBC|) hash lookups instead of cost scans. The
// genome already carries the costs of the DBCs an operator left alone,
// so only dirty DBCs reach the cache (price).
//
// Misses are priced adaptively. When only a small minority of a
// placement's DBCs miss (the converged-population steady state), each
// missing DBC is priced by a targeted kernel scan — structured
// placements keep those scans shallow. When most DBCs miss (random
// initial populations, permute-mutated individuals), a single bounded
// replay of the access stream prices every DBC at once: on scattered
// placements the kernel's candidate walks are branch-miss bound and the
// linear replay is measurably faster, and one replay pass fills all
// missing entries together.
//
// Entries verify the full content on lookup, so a hash collision costs
// a comparison, never a wrong cost: cached evaluation is bit-identical
// to Cost (TestDBCCostCacheParity) and search trajectories are
// unchanged. Keys live back to back in one arena, so an insert appends
// instead of allocating. The cache only ever changes speed, not
// results; it resets deterministically when it reaches its size bound.
type dbcCostCache struct {
	kern *CostKernel
	m    map[uint64]dbcCacheEnt // content hash -> entry
	keys []int32                // every entry's content, back to back

	// Per-price scratch.
	missing []int
	hashes  []uint64
	last    []int
	per     []int64
}

type dbcCacheEnt struct {
	lo, hi int32 // the entry's content is keys[lo:hi]
	cost   int64
}

// The cache's footprint is bounded by its entry count and by its key
// arena (1 MiB; a 16 MiB arena doubled the GA's peak resident set for no
// measurable speed). The reset is deterministic, so results stay
// reproducible.
const (
	dbcCacheMaxEntries = 1 << 15
	dbcCacheMaxKeys    = 1 << 18
)

func newDBCCostCache(kern *CostKernel) *dbcCostCache {
	return &dbcCostCache{kern: kern, m: make(map[uint64]dbcCacheEnt, 256)}
}

// price re-prices g's dirty DBCs and clears their dirty marks. A clean
// DBC keeps the cost g inherited: its content is what it was when that
// cost was computed.
func (c *dbcCostCache) price(g *genome) {
	q := len(g.DBC)
	if cap(c.hashes) < q {
		c.hashes = make([]uint64, q)
		c.last = make([]int, q)
		c.per = make([]int64, q)
	}
	c.missing = c.missing[:0]

	nonEmpty := 0
	for d, content := range g.DBC {
		if len(content) > 0 {
			nonEmpty++
		}
		if !g.dirty[d] {
			continue
		}
		g.dirty[d] = false
		g.cost[d] = 0
		if len(content) == 0 {
			continue
		}
		h := uint64(14695981039346656037)
		for _, v := range content {
			h = (h ^ uint64(uint32(v))) * 1099511628211
		}
		if cost, ok := c.lookup(h, content); ok {
			g.cost[d] = cost
			continue
		}
		c.hashes[d] = h
		c.missing = append(c.missing, d)
	}

	switch {
	case len(c.missing) == 0:
	case len(c.missing)*4 <= nonEmpty:
		// Minority miss: targeted kernel scans of just the missing DBCs.
		for _, d := range c.missing {
			g.cost[d] = c.kern.CostDBC(&g.lookup, g.DBC[d])
			c.insert(c.hashes[d], g.DBC[d], g.cost[d])
		}
	default:
		// Bulk miss: one replay pass prices every DBC at once.
		shiftCostPerDBC(c.kern.Sequence(), &g.lookup, c.last[:q], c.per[:q])
		for _, d := range c.missing {
			g.cost[d] = c.per[d]
			c.insert(c.hashes[d], g.DBC[d], g.cost[d])
		}
	}
}

func (c *dbcCostCache) lookup(h uint64, content []int) (int64, bool) {
	e, ok := c.m[h]
	if !ok || !dbcKeyEqual(c.keys[e.lo:e.hi], content) {
		return 0, false
	}
	return e.cost, true
}

// insert records a priced DBC content. A hash collision overwrites the
// older entry: the cache then misses on it, which costs a re-pricing,
// never a wrong cost.
func (c *dbcCostCache) insert(h uint64, content []int, cost int64) {
	if len(c.m) >= dbcCacheMaxEntries || len(c.keys)+len(content) > dbcCacheMaxKeys {
		clear(c.m)
		c.keys = c.keys[:0]
	}
	lo := len(c.keys)
	for _, v := range content {
		c.keys = append(c.keys, int32(v))
	}
	c.m[h] = dbcCacheEnt{lo: int32(lo), hi: int32(len(c.keys)), cost: cost}
}

func dbcKeyEqual(key []int32, content []int) bool {
	if len(key) != len(content) {
		return false
	}
	for i, v := range content {
		if key[i] != int32(v) {
			return false
		}
	}
	return true
}
