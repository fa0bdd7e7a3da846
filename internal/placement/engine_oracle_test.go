package placement

import (
	"fmt"

	"repro/internal/rtm"
	"repro/internal/trace"
)

// EngineCost replays the sequence through rtm shift engines, one per DBC,
// supporting multi-port geometries. domainsPerDBC must be at least the
// fullest DBC of the placement; ports is the number of access ports per
// track, spread by the canonical rtm.PortPositions rule over
// domainsPerDBC domains. With ports == 1 this matches ShiftCost exactly.
//
// EngineCost (and EngineCostAt, its explicit-layout form) is the tests'
// multi-port cost *oracle*: the allocation-free PortModel evaluators in
// portcost.go are pinned bit-identical to it (TestPortCostMatchesEngine,
// FuzzPortCostParity). It allocates an engine per DBC so that it is
// trivially correct by construction.
func EngineCost(s *trace.Sequence, p *Placement, domainsPerDBC, ports int) (int64, error) {
	pos, err := rtm.PortPositions(domainsPerDBC, ports)
	if err != nil {
		return 0, err
	}
	return EngineCostAt(s, p, domainsPerDBC, pos)
}

// EngineCostAt is EngineCost with an explicit port layout, for devices
// whose track length grew past the geometry the ports were fabricated
// for (the layout then derives from the geometry's length, not the
// grown one — see rtm.NewShiftEngineAt and sim.RunSequence).
func EngineCostAt(s *trace.Sequence, p *Placement, domainsPerDBC int, portPos []int) (int64, error) {
	if n := p.MaxDBCLen(); domainsPerDBC < n {
		return 0, fmt.Errorf("placement: DBC holds %d variables but device has %d domains", n, domainsPerDBC)
	}
	l, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return 0, err
	}
	engines := make([]*rtm.ShiftEngine, len(p.DBC))
	for i := range engines {
		e, err := rtm.NewShiftEngineAt(domainsPerDBC, portPos)
		if err != nil {
			return 0, err
		}
		engines[i] = e
	}
	var total int64
	for i, a := range s.Accesses {
		d := l.DBCOf[a.Var]
		if d < 0 {
			return 0, unplacedAccess(s, i)
		}
		c, err := engines[d].Access(l.Offset[a.Var])
		if err != nil {
			return 0, err
		}
		total += int64(c)
	}
	return total, nil
}
