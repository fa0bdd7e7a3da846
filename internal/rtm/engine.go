package rtm

import "fmt"

// ShiftEngine models the shift controller of one DBC. The engine tracks the
// current shift offset of the (lock-stepped) tracks and, for each requested
// word location, computes how many single-domain shift operations are
// needed to align that location with an access port.
//
// Physical model: a track has Domains word locations at logical positions
// 0..Domains-1 and Ports access ports at fixed physical positions. When the
// track has been shifted by s domains, location x sits over port p when
// x - s == p. Accessing x through port p therefore requires the shift
// offset to become x - p; the controller picks the port minimizing the
// distance from the current offset. With one port at position 0, the cost
// of accessing x after y is exactly |x - y| — the cost model of the paper.
//
// The first access of a cold engine is free, matching the paper's
// arithmetic in Fig. 3 (the port is considered pre-aligned to the first
// accessed location).
type ShiftEngine struct {
	domains int
	ports   []int
	offset  int
	warm    bool

	shifts   int64
	accesses int64
}

// PortPositions returns the canonical evenly-spread port layout for a
// track of the given length: port j sits at floor(j*domains/ports), so a
// single port sits at position 0. This is the one deterministic rule
// every layer derives port positions from — the shift engines here, the
// simulator (internal/sim, whose analytic and cycle views share one
// replay) and the placement cost stack (placement.NewPortModel) — so a
// placement priced by one layer scores identically on every other.
func PortPositions(domains, ports int) ([]int, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("rtm: domains must be positive, got %d", domains)
	}
	if ports <= 0 || ports > domains {
		return nil, fmt.Errorf("rtm: ports must be in [1,%d], got %d", domains, ports)
	}
	pos := make([]int, ports)
	for j := range pos {
		pos[j] = j * domains / ports
	}
	return pos, nil
}

// NewShiftEngine creates a shift engine for a DBC with the given number of
// word locations and evenly spaced ports. ports must be in [1, domains].
func NewShiftEngine(domains, ports int) (*ShiftEngine, error) {
	pos, err := PortPositions(domains, ports)
	if err != nil {
		return nil, err
	}
	return &ShiftEngine{domains: domains, ports: pos}, nil
}

// NewShiftEngineAt creates a shift engine with an explicit port layout —
// the construction the simulator uses when a capacity-relaxed placement
// grows the track past the configured geometry: the domain count grows,
// but the ports stay at the physical positions the geometry fabricated
// them at (growing would otherwise silently displace them). Positions
// must be strictly increasing and inside [0, domains).
func NewShiftEngineAt(domains int, positions []int) (*ShiftEngine, error) {
	if domains <= 0 {
		return nil, fmt.Errorf("rtm: domains must be positive, got %d", domains)
	}
	if len(positions) == 0 {
		return nil, fmt.Errorf("rtm: at least one port position required")
	}
	for i, p := range positions {
		if p < 0 || p >= domains {
			return nil, fmt.Errorf("rtm: port position %d outside [0,%d)", p, domains)
		}
		if i > 0 && p <= positions[i-1] {
			return nil, fmt.Errorf("rtm: port positions must be strictly increasing, got %v", positions)
		}
	}
	return &ShiftEngine{domains: domains, ports: append([]int(nil), positions...)}, nil
}

// Ports returns a copy of the port positions.
func (e *ShiftEngine) Ports() []int { return append([]int(nil), e.ports...) }

// CostOf returns the number of shifts that accessing location x would take
// from the current state, without performing the access.
func (e *ShiftEngine) CostOf(x int) (int, error) {
	if x < 0 || x >= e.domains {
		return 0, fmt.Errorf("rtm: location %d out of range [0,%d)", x, e.domains)
	}
	if !e.warm {
		return 0, nil
	}
	cost, _ := e.nearest(e.offset, x)
	return cost, nil
}

// Access aligns location x with the nearest port, returning the number of
// shift operations issued.
func (e *ShiftEngine) Access(x int) (int, error) {
	if x < 0 || x >= e.domains {
		return 0, fmt.Errorf("rtm: location %d out of range [0,%d)", x, e.domains)
	}
	e.accesses++
	if !e.warm {
		// Pre-align the cheapest port to x for free: the port nearest
		// to x is the one nearest from offset 0.
		e.warm = true
		_, e.offset = e.nearest(0, x)
		return 0, nil
	}
	cost, off := e.nearest(e.offset, x)
	e.offset = off
	e.shifts += int64(cost)
	return cost, nil
}

// nearest is the controller's port choice: from shift offset off, the
// port that aligns with location x in the fewest shifts, lowest index on
// ties. It returns those shifts and the offset the alignment leaves.
// placement.PortModel's step writes the same walk on its own: the
// engine is the independent oracle TestPortCostMatchesEngine holds it to.
func (e *ShiftEngine) nearest(off, x int) (cost, newOff int) {
	cost = -1
	for _, p := range e.ports {
		need := x - p
		if d := abs(need - off); cost < 0 || d < cost {
			cost, newOff = d, need
		}
	}
	return cost, newOff
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Shifts returns the total number of shift operations issued so far.
func (e *ShiftEngine) Shifts() int64 { return e.shifts }

// Accesses returns the total number of accesses served so far.
func (e *ShiftEngine) Accesses() int64 { return e.accesses }

// Reset returns the engine to the cold state with zero counters.
func (e *ShiftEngine) Reset() {
	e.offset = 0
	e.warm = false
	e.shifts = 0
	e.accesses = 0
}
