package sim

import (
	"fmt"
	"math"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/trace"
)

// CycleSimulator is the cycle view of a device: its configuration plus
// the controller's whole-cycle time per read, write and single-domain
// shift. It holds no state between runs, so one simulator may serve any
// number of calls.
type CycleSimulator struct {
	cfg                                  Config
	readCycles, writeCycles, shiftCycles int64
}

// NewCycleSimulator builds the cycle view of cfg at the given controller
// clock. Each Table I latency rounds up to whole cycles (a controller
// quantizes to cycles), and every operation takes at least one cycle.
func NewCycleSimulator(cfg Config, clockGHz float64) (*CycleSimulator, error) {
	if !(clockGHz > 0) {
		return nil, fmt.Errorf("sim: clock must be positive, got %v", clockGHz)
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	cycles := func(ns float64) int64 { return max(int64(math.Ceil(ns*clockGHz)), 1) }
	return &CycleSimulator{
		cfg:         cfg,
		readCycles:  cycles(cfg.Params.ReadLatencyNS),
		writeCycles: cycles(cfg.Params.WriteLatencyNS),
		shiftCycles: cycles(cfg.Params.ShiftLatencyNS),
	}, nil
}

// CycleStats reports one run of the cycle view.
type CycleStats struct {
	// Cycles is the cycle the last access completes.
	Cycles int64
	// Counts are the replay's event totals, identical to RunSequence's.
	Counts energy.Counts
	// QueueWaitCycles sums, over all accesses, the cycles from issue to
	// the start of service (waiting for the bank or, serialized, for the
	// previous access).
	QueueWaitCycles int64
	// BusyCycles per bank: cycles the bank spent shifting or accessing.
	BusyCycles []int64
	// PerBankRequests counts the accesses each bank served.
	PerBankRequests []int64
	// MaxQueueDepth is the deepest any bank queue got. Every access is
	// queued at cycle 0, so this is the largest PerBankRequests entry.
	MaxQueueDepth int
}

// Utilization returns the mean bank-busy fraction.
func (s CycleStats) Utilization() float64 {
	if s.Cycles == 0 || len(s.BusyCycles) == 0 {
		return 0
	}
	var busy int64
	for _, b := range s.BusyCycles {
		busy += b
	}
	return float64(busy) / (float64(s.Cycles) * float64(len(s.BusyCycles)))
}

// RunCycles replays the sequence with its placement, as RunSequence
// does, and schedules every access on the device's banks. Serialized
// runs issue each access when its predecessor completes (the closed-loop
// CPU model, whose Cycles is the sum of the per-access service times);
// otherwise every access is issued at cycle 0 and the banks serve their
// queues in parallel (the open-loop model).
//
// Each DBC sits in one bank and a bank serves its accesses in program
// order, so the shifts an access needs do not depend on the schedule:
// the replay fixes them, and the schedule only times them.
func RunCycles(cs *CycleSimulator, s *trace.Sequence, p *placement.Placement, serialized bool) (CycleStats, error) {
	banks := cs.cfg.Geometry.Banks
	sc := &schedule{
		cs:          cs,
		serialized:  serialized,
		dbcsPerBank: cs.cfg.Geometry.SubarraysPerBank * cs.cfg.Geometry.DBCsPerSubarray,
		bankFree:    make([]int64, banks),
		stats: CycleStats{
			BusyCycles:      make([]int64, banks),
			PerBankRequests: make([]int64, banks),
		},
	}
	c, err := replay(cs.cfg, s, p, sc)
	if err != nil {
		return CycleStats{}, err
	}
	sc.stats.Counts = c
	for _, n := range sc.stats.PerBankRequests {
		sc.stats.MaxQueueDepth = max(sc.stats.MaxQueueDepth, int(n))
	}
	return sc.stats, nil
}

// schedule times the replay's accesses: one program-order chain when
// serialized, else one chain per bank starting at cycle 0.
type schedule struct {
	cs          *CycleSimulator
	serialized  bool
	dbcsPerBank int
	bankFree    []int64 // cycle each bank's latest access completes
	stats       CycleStats
}

// serve schedules the next access in program order: an access to DBC
// dbc that needed the given shifts.
func (sc *schedule) serve(dbc int, shifts int64, write bool) {
	b := dbc / sc.dbcsPerBank
	access := sc.cs.readCycles
	if write {
		access = sc.cs.writeCycles
	}
	service := shifts*sc.cs.shiftCycles + access
	start := sc.bankFree[b]
	if sc.serialized {
		// The previous access completes last of all so far.
		start = sc.stats.Cycles
	}
	finish := start + service
	sc.bankFree[b] = finish
	sc.stats.QueueWaitCycles += start
	sc.stats.BusyCycles[b] += service
	sc.stats.PerBankRequests[b]++
	sc.stats.Cycles = max(sc.stats.Cycles, finish)
}
