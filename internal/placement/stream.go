package placement

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/trace"
)

// Out-of-core windowed placement (DESIGN.md §12). A trace too large to
// hold in memory is split into consecutive windows of accesses; each
// window is compacted to its distinct variables, placed independently by
// an ordinary registry strategy, and the window placements are stitched
// into one continuous execution by replaying every access — plus the
// inter-window migrations — against per-DBC port state that persists
// across window boundaries. Working memory is O(window) regardless of
// stream length.
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
// *shift* cost is modeled, as everywhere in this repository). With a
// window at least as long as the stream there are no boundaries, no
// migrations, and the total equals the whole-trace placement cost
// exactly (TestPlaceStreamedWindowInfinity).

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
	// Strategy names the per-window placement strategy. Required.
	Strategy StrategyID
	// Registry resolves Strategy; nil uses the process-wide registry.
	Registry *Registry
	// Options is passed to the per-window strategy calls. Ports > 1 is
	// rejected: the window-stitching shift model is single-port.
	// Options.Kernel is ignored (window sequences are ephemeral).
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

// varLoc is a variable's physical location in one window's layout.
type varLoc struct{ dbc, off int }

// PlaceStreamed consumes an access stream window by window, placing each
// window with the configured strategy and stitching the window layouts
// into one continuous, deterministically-priced execution. The reader is
// drained to io.EOF. See the package comment above for the cost model;
// memory is O(Window + NumVars-independent bookkeeping) — the stream is
// never materialized.
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
	if cfg.Options.Ports > 1 {
		return nil, fmt.Errorf("placement: stream: %d ports unsupported (the window-stitching shift model is single-port)", cfg.Options.Ports)
	}
	q := cfg.DBCs
	window := cfg.Window
	if window <= 0 {
		window = DefaultStreamWindow
	}
	reg := cfg.Registry
	if reg == nil {
		var err error
		if reg, err = DefaultRegistry(); err != nil {
			return nil, fmt.Errorf("placement: stream: %w", err)
		}
	}
	st, ok := reg.Lookup(cfg.Strategy)
	if !ok {
		return nil, fmt.Errorf("placement: stream: unknown strategy %q", cfg.Strategy)
	}
	stOpts := cfg.Options
	stOpts.Context = ctx
	stOpts.Kernel = nil // window sequences are ephemeral; a caller kernel can never match

	res := &StreamResult{}

	// last[d] is DBC d's port offset after the previous access — the
	// state that persists across window boundaries and makes the stitched
	// total a genuine single-device replay. -1 while the DBC is cold.
	last := make([]int, q)
	for i := range last {
		last[i] = -1
	}
	charge := func(d, off int) int64 {
		var c int64
		if p := last[d]; p >= 0 {
			if off > p {
				c = int64(off - p)
			} else {
				c = int64(p - off)
			}
		}
		last[d] = off
		return c
	}

	// resident maps global variable -> location in the previous window's
	// layout; globals lists its keys (the previous window's variables in
	// ascending global order).
	var resident map[int]varLoc

	eof := false
	for !eof {
		if err := ctx.Err(); err != nil {
			// Same contract as the GA's cancellation (GAContext): the
			// best-so-far state — here the stitched result through the
			// last completed window — rides along with the context's
			// error, so a deadline bounds a long windowed run without
			// discarding the windows already priced.
			res.finish(cfg.Options.Cost)
			return res, err
		}
		// Read one window, compacting global variable ids to dense local
		// ids in order of first appearance.
		g2l := make(map[int]int)
		var order []int // local id -> global id
		ws := &trace.Sequence{}
		for ws.Len() < window {
			a, err := r.Next()
			if err == io.EOF {
				eof = true
				break
			}
			if err != nil {
				return nil, fmt.Errorf("placement: stream: reading access %d: %w", res.Accesses+int64(ws.Len()), err)
			}
			if a.Var < 0 || a.Var >= cfg.NumVars {
				return nil, fmt.Errorf("placement: stream: access %d to variable %d outside universe [0,%d)",
					res.Accesses+int64(ws.Len()), a.Var, cfg.NumVars)
			}
			lid, ok := g2l[a.Var]
			if !ok {
				lid = len(order)
				g2l[a.Var] = lid
				order = append(order, a.Var)
			}
			ws.Append(lid, a.Write)
		}
		if ws.Len() == 0 {
			break
		}

		// Place the compacted window. The stitching replay below prices
		// it, so a strategy that can build its placement without pricing
		// it (the constructive heuristics) skips the cost Place would
		// compute and discard.
		var p *Placement
		var err error
		if h, ok := st.(constructive); ok {
			p, err = h.construct(ws, q, stOpts)
		} else {
			p, _, err = st.Place(ws, q, stOpts)
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
				res.Windows, ws.Len(), len(order), err)
		}
		l, err := p.BuildLookup(ws.NumVars())
		if err != nil {
			return nil, fmt.Errorf("placement: stream: window %d: %w", res.Windows, err)
		}
		for lid := range order {
			if l.DBCOf[lid] < 0 {
				return nil, fmt.Errorf("placement: stream: window %d: strategy %s left variable %d unplaced",
					res.Windows, cfg.Strategy, order[lid])
			}
		}

		// Charge the boundary migrations: variables live in this window
		// that the previous window placed elsewhere move first, in
		// ascending global variable order.
		if resident != nil {
			moved := make([]int, 0, len(order))
			for lid, g := range order {
				if old, ok := resident[g]; ok {
					if nw := (varLoc{l.DBCOf[lid], l.Offset[lid]}); nw != old {
						moved = append(moved, lid)
					}
				}
			}
			sort.Slice(moved, func(i, j int) bool { return order[moved[i]] < order[moved[j]] })
			for _, lid := range moved {
				old := resident[order[lid]]
				res.MigrationShifts += charge(old.dbc, old.off)            // read out of the old location
				res.MigrationShifts += charge(l.DBCOf[lid], l.Offset[lid]) // write into the new one
				res.MigratedVars++
				res.Reads++
				res.Writes++
			}
		}

		// Replay the window's accesses against the persistent port state.
		for _, a := range ws.Accesses {
			res.WindowShifts += charge(l.DBCOf[a.Var], l.Offset[a.Var])
			if a.Write {
				res.Writes++
			} else {
				res.Reads++
			}
		}

		// This window's layout is the next boundary's residency.
		resident = make(map[int]varLoc, len(order))
		for lid, g := range order {
			resident[g] = varLoc{l.DBCOf[lid], l.Offset[lid]}
		}

		res.Accesses += int64(ws.Len())
		res.Windows++
		if len(order) > res.MaxWindowVars {
			res.MaxWindowVars = len(order)
		}
		res.Shifts = res.WindowShifts + res.MigrationShifts
		if cfg.Progress != nil {
			cfg.Progress(StreamWindowEvent{
				Window:     res.Windows - 1,
				Accesses:   res.Accesses,
				WindowVars: len(order),
				Shifts:     res.Shifts,
			})
		}
	}
	res.finish(cfg.Options.Cost)
	return res, nil
}
