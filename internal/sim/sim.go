// Package sim is the trace-driven RTM simulator used by the evaluation —
// the stand-in for RTSim (see DESIGN.md §3). It replays access sequences
// against a placement on a configured RTM device and drives one shift
// engine per DBC. Two views time the same replay: RunSequence converts
// the event counts into serialized latency and energy with the Table I
// model, and RunCycles schedules every access on the device's banks in
// whole controller cycles.
package sim

import (
	"fmt"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// Config describes the simulated device.
type Config struct {
	// Geometry is the RTM array layout.
	Geometry rtm.Geometry
	// Params is the timing/energy/area model; its DBC count should match
	// the geometry (helpers below guarantee this).
	Params energy.Params
	// EnforceCapacity rejects placements that overflow a DBC's domain
	// count. The paper's evaluation does not enforce capacity (some
	// OffsetStone functions exceed the 4 KiB array); disabled by default.
	EnforceCapacity bool
}

// TableIConfig builds the simulator configuration for one of the paper's
// iso-capacity configurations (2, 4, 8 or 16 DBCs).
func TableIConfig(dbcs int) (Config, error) {
	g, err := rtm.TableIGeometry(dbcs)
	if err != nil {
		return Config{}, err
	}
	p, err := energy.ForDBCs(dbcs)
	if err != nil {
		return Config{}, err
	}
	return Config{Geometry: g, Params: p}, nil
}

// Result aggregates the outcome of simulating one or more sequences.
type Result struct {
	// Counts are the raw event totals.
	Counts energy.Counts
	// LatencyNS is the serialized runtime.
	LatencyNS float64
	// Energy is the leakage / read-write / shift breakdown.
	Energy energy.Breakdown
	// Sequences is the number of sequences replayed.
	Sequences int
}

// Add merges another result (e.g. of the next sequence) into r.
func (r *Result) Add(other Result) {
	r.Counts.Add(other.Counts)
	r.LatencyNS += other.LatencyNS
	r.Energy.Add(other.Energy)
	r.Sequences += other.Sequences
}

// RunSequence replays one sequence with its placement on the device.
func RunSequence(cfg Config, s *trace.Sequence, p *placement.Placement) (Result, error) {
	c, err := replay(cfg, s, p, nil)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Counts:    c,
		LatencyNS: cfg.Params.LatencyNS(c),
		Energy:    cfg.Params.Energy(c),
		Sequences: 1,
	}, nil
}

// replay is the simulator's one loop over a sequence: it drives one shift
// engine per DBC and returns the event totals. Both views of the device
// run it — RunSequence prices the totals, RunCycles also hands every
// access to a cycle schedule (sched, nil for RunSequence).
func replay(cfg Config, s *trace.Sequence, p *placement.Placement, sched *schedule) (energy.Counts, error) {
	if p.NumDBCs() > cfg.Geometry.DBCs() {
		return energy.Counts{}, fmt.Errorf("sim: placement uses %d DBCs, device has %d", p.NumDBCs(), cfg.Geometry.DBCs())
	}
	if cfg.EnforceCapacity {
		if n := p.MaxDBCLen(); n > cfg.Geometry.WordsPerDBC() {
			return energy.Counts{}, fmt.Errorf("sim: DBC occupancy %d exceeds %d domains", n, cfg.Geometry.WordsPerDBC())
		}
	}
	lookup, err := p.BuildLookup(s.NumVars())
	if err != nil {
		return energy.Counts{}, err
	}

	// The device may have fewer domains than the (capacity-relaxed)
	// placement needs; size engines to the placement so the shift counts
	// remain those of the cost model. Energy/latency per shift still come
	// from the configured Params. The access ports stay at the positions
	// the *geometry* fabricated them at: growing the track must not
	// silently respace the ports, or the simulated costs diverge from
	// every evaluator that priced the placement against the configured
	// device (regression-tested in TestRunSequenceGrownTrackKeepsPorts).
	ports, err := cfg.Geometry.PortPositions()
	if err != nil {
		return energy.Counts{}, err
	}
	domains := cfg.Geometry.WordsPerDBC()
	if n := p.MaxDBCLen(); n > domains {
		domains = n
	}
	engines := make([]*rtm.ShiftEngine, p.NumDBCs())
	for i := range engines {
		e, err := rtm.NewShiftEngineAt(domains, ports)
		if err != nil {
			return energy.Counts{}, err
		}
		engines[i] = e
	}

	var c energy.Counts
	for i, a := range s.Accesses {
		d := lookup.DBCOf[a.Var]
		if d < 0 {
			return energy.Counts{}, fmt.Errorf("sim: access %d to unplaced variable %s", i, s.Name(a.Var))
		}
		shifts, err := engines[d].Access(lookup.Offset[a.Var])
		if err != nil {
			return energy.Counts{}, err
		}
		c.Shifts += int64(shifts)
		if a.Write {
			c.Writes++
		} else {
			c.Reads++
		}
		if sched != nil {
			sched.serve(d, int64(shifts), a.Write)
		}
	}
	return c, nil
}

// Benchmark-level simulation (place every sequence with a strategy,
// replay, accumulate) lives in the engine batch layer
// (engine.BatchSimulate) and the public session API
// (racetrack.Lab.SimulateBenchmark); this package only simulates one
// already-placed sequence at a time.
