package placement

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"repro/internal/trace"
)

// Out-of-core windowed placement (DESIGN.md §12). A trace too large to
// hold in memory is split into consecutive windows of accesses; each
// window is compacted to its distinct variables, placed independently by
// an ordinary registry strategy, and the window placements are stitched
// into one continuous execution by replaying every access — plus the
// inter-window migrations — against per-DBC port state that persists
// across window boundaries. Working memory is O(window) regardless of
// stream length and of the declared universe, and the per-access loops
// allocate nothing: the window buffer, the compaction table and the
// bookkeeping slices are reused from window to window.
//
// The stitching model: the physical device has q DBCs whose port
// positions never reset. Entering window w, every variable that was
// resident in window w-1 and is live in window w at a different
// (DBC, offset) location must migrate: one read at its old location and
// one write at its new one, both charged through the shift model like
// any other access, in ascending variable order (a deterministic
// schedule). Variables not resident in the immediately-previous window
// are (re)loaded from backing store, which the shift model does not
// charge (a write-through backing hierarchy is assumed; only the
// *shift* cost is modeled, as everywhere in this repository). The shift
// model is the paper's single-port |x−y| one, or with Options.Ports > 1
// PortModel's nearest-port one, whose per-DBC track offsets carry across
// windows the same way. With a window at least as long as the stream
// there are no boundaries, no migrations, and the total equals the
// whole-trace placement cost exactly (TestPlaceStreamedWindowInfinity,
// TestPlaceStreamedMultiPortWholeTrace).

// DefaultStreamWindow is the window length PlaceStreamed uses when the
// config leaves Window unset: large enough to amortize per-window
// strategy startup, small enough that a window's working set (the
// compacted sequence plus the strategy's own state) stays in tens of
// megabytes for typical traces.
const DefaultStreamWindow = 1 << 18

// StreamConfig configures PlaceStreamed.
type StreamConfig struct {
	// NumVars is the variable universe of the stream; every access must
	// lie in [0, NumVars). Required.
	NumVars int
	// DBCs is the number of domain block clusters (q). Required.
	DBCs int
	// Window is the number of accesses placed per window; <= 0 selects
	// DefaultStreamWindow.
	Window int
	// Strategy names the per-window placement strategy. Required. The
	// window sequence it receives is valid only for the duration of the
	// call: PlaceStreamed reuses its storage for the next window.
	Strategy StrategyID
	// Registry resolves Strategy. Required.
	Registry *Registry
	// Options is passed to the per-window strategy calls. With Ports > 1
	// the windows are placed, and the stitched stream priced, under the
	// multi-port model (PortModelFor). Options.Kernel is ignored (window
	// sequences are ephemeral).
	Options Options
	// Progress, when non-nil, is called after each placed window.
	Progress func(StreamWindowEvent)
}

// StreamWindowEvent reports one finished window.
type StreamWindowEvent struct {
	// Window is the finished window's index (0-based).
	Window int
	// Accesses is the cumulative access count consumed so far.
	Accesses int64
	// WindowVars is the window's distinct-variable count.
	WindowVars int
	// Shifts is the cumulative stitched shift count so far.
	Shifts int64
}

// StreamResult is the outcome of a streamed placement.
type StreamResult struct {
	// Accesses is the total stream length consumed.
	Accesses int64
	// Windows is the number of windows placed.
	Windows int
	// Shifts is the total stitched shift count:
	// WindowShifts + MigrationShifts.
	Shifts int64
	// WindowShifts charges the trace's own accesses, replayed against
	// the continuous per-DBC port state.
	WindowShifts int64
	// MigrationShifts charges the inter-window migrations (one read at
	// the old location, one write at the new, per moved variable).
	MigrationShifts int64
	// MigratedVars counts variable migrations across all boundaries.
	MigratedVars int64
	// Reads and Writes count the stream's accesses by kind plus the
	// inter-window migration traffic (each migrated variable adds one
	// read at its old location and one write at its new one). Together
	// with Shifts they form the tally the cost model prices.
	Reads  int64
	Writes int64
	// Cost prices the stitched totals under StreamConfig.Options.Cost.
	// nil when no cost model is configured (the raw shift objective).
	Cost *Cost
	// MaxWindowVars is the largest distinct-variable count of any
	// window — the peak placement-problem size, which bounds the
	// working set.
	MaxWindowVars int
}

// finish recomputes the stitched shift total and, when a cost model is
// configured, prices the accumulated tally — once, at the boundary; the
// per-access loops never touch the model.
func (res *StreamResult) finish(m *CostModel) {
	res.Shifts = res.WindowShifts + res.MigrationShifts
	if m != nil {
		c := m.Price(Tally{Shifts: res.Shifts, Reads: res.Reads, Writes: res.Writes})
		res.Cost = &c
	}
}

// PlaceStreamed consumes an access stream window by window, placing each
// window with the configured strategy and stitching the window layouts
// into one continuous, deterministically-priced execution. The reader is
// drained to io.EOF. See the package comment above for the cost model;
// memory is O(Window), whatever NumVars and the stream length — the
// stream is never materialized.
//
// The context is checked between windows. On cancellation the stitched
// result through the last completed window is returned together with
// the context's error — the same best-so-far contract the GA's
// cancellation has — so deadline-bounded callers keep the partial
// accounting instead of losing the run.
func PlaceStreamed(ctx context.Context, r trace.AccessReader, cfg StreamConfig) (*StreamResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.NumVars < 0 {
		return nil, fmt.Errorf("placement: stream: negative NumVars %d", cfg.NumVars)
	}
	if cfg.DBCs < 1 {
		return nil, fmt.Errorf("placement: stream: DBCs must be >= 1, got %d", cfg.DBCs)
	}
	if cfg.Strategy == "" {
		return nil, fmt.Errorf("placement: stream: no strategy selected")
	}
	q := cfg.DBCs
	pm, err := cfg.Options.PortModelFor(q)
	if err != nil {
		return nil, fmt.Errorf("placement: stream: %w", err)
	}
	window := cfg.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("placement: stream: no registry")
	}
	st, ok := cfg.Registry.Lookup(cfg.Strategy)
	if !ok {
		return nil, fmt.Errorf("placement: stream: unknown strategy %q", cfg.Strategy)
	}
	stOpts := cfg.Options
	stOpts.Context = ctx
	stOpts.Kernel = nil // window sequences are ephemeral; a caller kernel can never match

	res := &StreamResult{}
	w := newStreamWindow(q, window, pm)
	for eof := false; !eof; {
		if err := ctx.Err(); err != nil {
			// Same contract as the GA's cancellation (GAContext): the
			// best-so-far state — here the stitched result through the
			// last completed window — rides along with the context's
			// error, so a deadline bounds a long windowed run without
			// discarding the windows already priced.
			res.finish(cfg.Options.Cost)
			return res, err
		}
		if eof, err = w.fill(r, window, cfg.NumVars, res.Accesses); err != nil {
			return nil, err
		}
		if len(w.buf) == 0 {
			break
		}

		// Place the compacted window. The stitching replay below prices
		// it, so a strategy that can build its placement without pricing
		// it (the constructive heuristics) skips the cost Place would
		// compute and discard.
		w.seq = *trace.FromAccesses(w.buf, len(w.order))
		var p *Placement
		if h, ok := st.(constructive); ok {
			p, err = h.construct(&w.seq, q, stOpts)
		} else {
			p, _, err = st.Place(&w.seq, q, stOpts)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				// Cancelled mid-window: the unstitched window is
				// discarded; the result through the previous window
				// still rides along with the context error.
				res.finish(cfg.Options.Cost)
				return res, cerr
			}
			return nil, fmt.Errorf("placement: stream: window %d (%d accesses, %d vars): %w",
				res.Windows, len(w.buf), len(w.order), err)
		}
		if len(p.DBC) > q {
			return nil, fmt.Errorf("placement: stream: window %d: strategy %s used %d DBCs of %d",
				res.Windows, cfg.Strategy, len(p.DBC), q)
		}
		l, err := p.BuildLookup(len(w.order))
		if err != nil {
			return nil, fmt.Errorf("placement: stream: window %d: %w", res.Windows, err)
		}
		for lid := range w.order {
			if l.DBCOf[lid] < 0 {
				return nil, fmt.Errorf("placement: stream: window %d: strategy %s left variable %d unplaced",
					res.Windows, cfg.Strategy, w.order[lid])
			}
		}

		w.migrate(l, res)
		w.replay(l, res)
		w.advance(l)

		res.Accesses += int64(len(w.buf))
		res.Windows++
		if len(w.order) > res.MaxWindowVars {
			res.MaxWindowVars = len(w.order)
		}
		res.Shifts = res.WindowShifts + res.MigrationShifts
		if cfg.Progress != nil {
			cfg.Progress(StreamWindowEvent{
				Window:     res.Windows - 1,
				Accesses:   res.Accesses,
				WindowVars: len(w.order),
				Shifts:     res.Shifts,
			})
		}
	}
	res.finish(cfg.Options.Cost)
	return res, nil
}

// streamWindow is PlaceStreamed's working state, allocated once and
// reused for every window, so the per-access loops allocate nothing.
type streamWindow struct {
	vars  varTable       // global id -> local id, previous location
	buf   []trace.Access // the window, compacted to local ids
	seq   trace.Sequence // the strategy's view of buf
	order []int          // local id -> global id
	moved []migration
	track []int      // per-DBC track state, cold until first access
	pm    *PortModel // nil: the single-port |x−y| model
}

// migration is one variable moving at a window boundary.
type migration struct{ g, lid, dbc, off int }

// newStreamWindow sizes the access buffer for a whole window up to
// DefaultStreamWindow, since growing it by append would allocate several
// times its final size; a longer window grows it on demand.
func newStreamWindow(q, window int, pm *PortModel) *streamWindow {
	w := &streamWindow{
		buf:   make([]trace.Access, 0, min(window, DefaultStreamWindow)),
		track: make([]int, q),
		pm:    pm,
	}
	setCold(w.track)
	w.vars.init(64)
	return w
}

// fill reads the next window of up to window accesses into buf,
// compacting global ids to dense local ids in order of first
// appearance; base is the index of the window's first access in the
// stream. It reports io.EOF as eof, not as an error.
//
//rtm:hotpath
func (w *streamWindow) fill(r trace.AccessReader, window, numVars int, base int64) (eof bool, err error) {
	w.buf, w.order = w.buf[:0], w.order[:0]
	for len(w.buf) < window {
		a, err := r.Next()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, readError(base+int64(len(w.buf)), err)
		}
		if a.Var < 0 || a.Var >= numVars {
			return false, universeError(base+int64(len(w.buf)), a.Var, numVars)
		}
		e := w.vars.slot(a.Var)
		if e.lid < 0 {
			e.lid = len(w.order)
			w.order = append(w.order, a.Var)
		}
		w.buf = append(w.buf, trace.Access{Var: e.lid, Write: a.Write})
	}
	return false, nil
}

// readError and universeError build fill's errors off the hot path.
func readError(at int64, err error) error {
	return fmt.Errorf("placement: stream: reading access %d: %w", at, err)
}

func universeError(at int64, v, numVars int) error {
	return fmt.Errorf("placement: stream: access %d to variable %d outside universe [0,%d)", at, v, numVars)
}

// migrate charges the boundary migrations: every variable of this
// window that the previous window placed elsewhere moves first — a read
// at its old location, a write at its new one — in ascending global
// variable order.
func (w *streamWindow) migrate(l *Lookup, res *StreamResult) {
	w.moved = w.moved[:0]
	for lid, g := range w.order {
		e := w.vars.slot(g)
		if e.dbc >= 0 && (e.dbc != l.DBCOf[lid] || e.off != l.Offset[lid]) {
			w.moved = append(w.moved, migration{g: g, lid: lid, dbc: e.dbc, off: e.off})
		}
	}
	slices.SortFunc(w.moved, func(a, b migration) int { return cmp.Compare(a.g, b.g) })
	for _, m := range w.moved {
		res.MigrationShifts += w.charge(m.dbc, m.off)                    // read out of the old location
		res.MigrationShifts += w.charge(l.DBCOf[m.lid], l.Offset[m.lid]) // write into the new one
	}
	n := int64(len(w.moved))
	res.MigratedVars += n
	res.Reads += n
	res.Writes += n
}

// replay charges the window's accesses against the persistent track
// state.
//
//rtm:hotpath
func (w *streamWindow) replay(l *Lookup, res *StreamResult) {
	// The strategy placed every local variable (checked by the caller),
	// so no access is unplaced.
	shifts, _ := replayTotal(&w.seq, l, w.pm, w.track, math.MaxInt64)
	var writes int64
	for _, a := range w.buf {
		if a.Write {
			writes++
		}
	}
	res.WindowShifts += shifts
	res.Writes += writes
	res.Reads += int64(len(w.buf)) - writes
}

// charge serves one migration access to offset x of DBC d with the
// replay loops' step and returns its shift cost: free on a cold DBC,
// which it leaves at x (single port) or aligned to the cheapest port.
func (w *streamWindow) charge(d, x int) int64 {
	o := w.track[d]
	if w.pm == nil {
		w.track[d] = x
		if o == cold {
			return 0
		}
		return absDist(o, x)
	}
	if o == cold {
		_, w.track[d] = w.pm.step(0, x)
		return 0
	}
	c, no := w.pm.step(o, x)
	w.track[d] = no
	return int64(c)
}

// advance makes this window's layout the residency the next boundary
// reads: the table is emptied and refilled with this window's variables
// at their new locations, so it never holds more than two windows'
// variables.
func (w *streamWindow) advance(l *Lookup) {
	w.vars.clear()
	for lid, g := range w.order {
		e := w.vars.slot(g)
		e.dbc, e.off = l.DBCOf[lid], l.Offset[lid]
	}
}

// varTable is an open-addressing hash table (linear probing) from
// global variable id to that variable's window state. A slot is live
// while its generation equals the table's, so clear is one increment.
// The table grows to keep its load at most one half and never shrinks;
// since PlaceStreamed clears it at every boundary, its capacity follows
// the largest distinct-variable count of two consecutive windows, never
// the declared universe.
type varTable struct {
	slots []varSlot
	shift uint   // 64 − log2(len(slots)), for Fibonacci hashing
	gen   uint64 // generation of the live slots
	n     int    // live slots
}

type varSlot struct {
	key      int // global variable id
	gen      uint64
	lid      int // local id in the current window; -1 before its first access
	dbc, off int // location in the previous window; dbc -1 if it was not there
}

func (t *varTable) init(size int) {
	t.slots = make([]varSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.gen = 1
	t.n = 0
}

func (t *varTable) clear() {
	t.gen++
	t.n = 0
}

// slot returns g's live slot, inserting a fresh one (no local id, no
// previous location) if g has none.
//
//rtm:hotpath
func (t *varTable) slot(g int) *varSlot {
	mask := len(t.slots) - 1
	for i := int(uint64(g) * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		e := &t.slots[i]
		if e.gen != t.gen {
			if 2*(t.n+1) > len(t.slots) {
				t.grow()
				return t.slot(g)
			}
			*e = varSlot{key: g, gen: t.gen, lid: -1, dbc: -1}
			t.n++
			return e
		}
		if e.key == g {
			return e
		}
	}
}

// grow doubles the table and re-inserts the live slots.
func (t *varTable) grow() {
	old, gen := t.slots, t.gen
	t.init(2 * len(old))
	for i := range old {
		if e := &old[i]; e.gen == gen {
			*t.slot(e.key) = varSlot{key: e.key, gen: t.gen, lid: e.lid, dbc: e.dbc, off: e.off}
		}
	}
}
