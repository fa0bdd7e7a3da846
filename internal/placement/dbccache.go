package placement

// dbcCostCache memoizes DBC costs by each DBC's member *set* (DESIGN.md
// §8). A member's stencil is charged against its first candidate in the
// member's DBC, and which candidate that is depends only on which
// variables share the DBC. So a set fixes a transition list, one
// (u, v, w) entry per member v and distinct realized predecessor u, and
// its cost under any order of its members is Σ w·|off(u) − off(v)|.
// Search re-prices the same sets constantly: a transpose or a
// permutation keeps a DBC's set, operators rebuild sets an earlier
// individual had, and converged populations are near-duplicates. Only a
// genome's dirty DBCs reach the cache (price).
//
// A set's key is the sum of its members' random 64-bit keys. A hit
// requires the same size and every stored member to lie in the DBC
// being priced, which the genome's lookup answers, so a key collision
// costs a miss, never a wrong cost (TestDBCCostCacheParity).
//
// A miss is built (one walk of the members' stencil rows yields both the
// list and the cost) when at most a quarter of the genome's non-empty
// DBCs miss. When more miss, the sets seen for the first time share one
// per-DBC replay and enter a small direct-mapped filter, and the sets
// the filter holds are built: most first-sight sets never recur, and on
// scattered placements one replay beats their stencil walks.
//
// Members and transitions live back to back in two bounded arenas. A
// full arena or entry table resets the cache deterministically; an
// entry larger than an arena is priced and not kept. The cache changes
// speed only, never results.
type dbcCostCache struct {
	kern    *CostKernel
	keys    []uint64            // keys[v]: v's share of a set's key
	m       map[uint64]setEntry // set key -> entry
	members []int32             // every entry's members, back to back
	trans   []setTrans          // every entry's transitions, back to back
	seen    []uint64            // filter: keys of sets priced by replay

	// The arena bounds, dbcCacheMaxMembers and dbcCacheMaxTrans; tests
	// shrink them to reach the reset and the too-large path.
	maxMembers, maxTrans int

	// Per-price scratch.
	missing []int
	replay  []int
	hashes  []uint64
	track   []int
	per     []int64
	acc     []int64 // acc[u]: the weight charged to u so far, 0 between members
	touched []int32 // the u with acc[u] > 0; room for every variable
}

// setEntry locates one set's members and transitions in the arenas.
type setEntry struct {
	mLo, mHi int32 // members[mLo:mHi]
	tLo, tHi int32 // trans[tLo:tHi]
}

// setTrans is one transition of a set: w accesses of v whose realized
// predecessor is u.
type setTrans struct {
	u, v int32
	w    int64
}

// The cache's footprint is bounded by its entry count, by its arenas
// (256 KiB of members and 512 KiB of transitions; a walk appends its
// entry before the bound is checked, so the transition arena can grow
// one entry past it) and by the filter (8 KiB).
const (
	dbcCacheMaxEntries = 1 << 15
	dbcCacheMaxMembers = 1 << 16
	dbcCacheMaxTrans   = 1 << 15
	dbcCacheSeenSlots  = 1 << 10
)

func newDBCCostCache(kern *CostKernel) *dbcCostCache {
	n := kern.NumVars()
	return &dbcCostCache{
		kern:    kern,
		keys:    setKeys(n),
		m:       make(map[uint64]setEntry, 256),
		seen:    make([]uint64, dbcCacheSeenSlots),
		acc:     make([]int64, n),
		touched: make([]int32, n),

		maxMembers: dbcCacheMaxMembers,
		maxTrans:   dbcCacheMaxTrans,
	}
}

// setKeys returns n pseudo-random 64-bit keys (splitmix64 from a fixed
// seed), one per variable.
func setKeys(n int) []uint64 {
	keys := make([]uint64, n)
	x := uint64(0)
	for i := range keys {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		keys[i] = z ^ (z >> 31)
	}
	return keys
}

// price re-prices g's dirty DBCs and clears their dirty marks. A clean
// DBC keeps the cost g inherited: its content is what it was when that
// cost was computed.
func (c *dbcCostCache) price(g *genome) {
	q := len(g.DBC)
	if cap(c.hashes) < q {
		c.hashes = make([]uint64, q)
		c.track = make([]int, q)
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
		var h uint64
		for _, v := range content {
			h += c.keys[v]
		}
		if e, ok := c.lookup(h, d, content, g.lookup.DBCOf); ok {
			g.cost[d] = c.setCost(e, g.lookup.Offset)
			continue
		}
		c.hashes[d] = h
		c.missing = append(c.missing, d)
	}

	if len(c.missing)*4 > nonEmpty {
		c.replayFirstSight(g)
	}
	for _, d := range c.missing {
		g.cost[d] = c.build(c.hashes[d], g.DBC[d], &g.lookup)
	}
}

// replayFirstSight handles a bulk miss: the missing sets seen for the
// first time share one replay pass, which prices every DBC at once, and
// enter the filter; c.missing keeps the sets the filter has seen, for
// price to build. A genome places every variable, so no access is
// unplaced. The replay loop lives here rather than in price, where the
// compiler spilled its registers.
func (c *dbcCostCache) replayFirstSight(g *genome) {
	c.replay = c.replay[:0]
	seen := c.missing[:0] // filters c.missing in place
	for _, d := range c.missing {
		h := c.hashes[d]
		if slot := &c.seen[h&(dbcCacheSeenSlots-1)]; *slot != h {
			*slot = h
			c.replay = append(c.replay, d)
		} else {
			seen = append(seen, d)
		}
	}
	c.missing = seen
	if len(c.replay) == 0 {
		return
	}
	q := len(g.DBC)
	track, per := c.track[:q], c.per[:q]
	setCold(track)
	clear(per)
	shiftPerDBC(c.kern.Sequence(), &g.lookup, track, per)
	for _, d := range c.replay {
		g.cost[d] = per[d]
	}
}

// lookup returns the entry of the set keyed h when it is exactly DBC
// d's member set: the same size, and every stored member placed in d.
func (c *dbcCostCache) lookup(h uint64, d int, content []int, dbcOf []int) (setEntry, bool) {
	e, ok := c.m[h]
	if !ok || int(e.mHi-e.mLo) != len(content) {
		return e, false
	}
	for _, v := range c.members[e.mLo:e.mHi] {
		if dbcOf[v] != d {
			return e, false
		}
	}
	return e, true
}

// setCost prices a set's transition list under the offsets of one
// order of its members.
//
//rtm:hotpath
func (c *dbcCostCache) setCost(e setEntry, off []int) int64 {
	var total int64
	for _, t := range c.trans[e.tLo:e.tHi] {
		total += t.w * absDist(off[t.u], off[t.v])
	}
	return total
}

// build walks the stencil rows of a DBC's members, keeps the member set
// keyed h with its transition list, and returns the DBC's cost. A key
// collision overwrites the older entry, which then misses: a re-pricing,
// never a wrong cost.
func (c *dbcCostCache) build(h uint64, content []int, l *Lookup) int64 {
	lo := len(c.trans)
	cost := c.walk(content, l)
	n := len(c.trans) - lo
	switch {
	case n > c.maxTrans || len(content) > c.maxMembers:
		c.trans = c.trans[:lo] // too large to keep
		return cost
	case lo+n > c.maxTrans || len(c.members)+len(content) > c.maxMembers || len(c.m) >= dbcCacheMaxEntries:
		c.trans = append(c.trans[:0], c.trans[lo:]...)
		c.members = c.members[:0]
		clear(c.m)
		lo = 0
	}
	mLo := len(c.members)
	for _, v := range content {
		c.members = append(c.members, int32(v))
	}
	c.m[h] = setEntry{mLo: int32(mLo), mHi: int32(len(c.members)), tLo: int32(lo), tHi: int32(len(c.trans))}
	return cost
}

// walk appends the transition list of content's member set to the
// arena and returns the DBC's cost under l.
//
//rtm:hotpath
func (c *dbcCostCache) walk(content []int, l *Lookup) int64 {
	dbc, off, acc := l.DBCOf, l.Offset, c.acc
	var total int64
	for _, v := range content {
		offv := off[v]
		for _, u := range c.touched[:c.charge(dbc, v)] {
			w := acc[u]
			acc[u] = 0
			c.trans = append(c.trans, setTrans{u: u, v: int32(v), w: w})
			total += w * absDist(offv, off[u])
		}
	}
	return total
}

// charge adds the weight of each of v's stencil rows to acc at the row's
// first candidate in v's DBC, as the kernel charges it (varCost), lists
// in touched each u it charges first, and returns how many it listed.
// The scan makes no call, so its loop state stays in registers.
//
//rtm:hotpath
func (c *dbcCostCache) charge(dbc []int, v int) int {
	k, acc, touched := c.kern, c.acc, c.touched
	start, cand, wgt := k.start, k.cand, k.wgt
	dv, n := dbc[v], 0
	for i := k.rowLo[v]; i < k.rowHi[v]; i++ {
		hi := start[i+1]
		for j := start[i]; j < hi; j++ {
			u := cand[j]
			if dbc[u] != dv {
				continue
			}
			if acc[u] == 0 {
				touched[n] = u
				n++
			}
			acc[u] += wgt[i]
			break
		}
	}
	return n
}
