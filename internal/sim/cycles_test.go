package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// cycleSim builds the cycle view of a one-port device with the given
// banks, one DBC per bank and 64-domain tracks, at 1 GHz with the 4-DBC
// Table I timing (read 1, write 2, shift 1 cycle).
func cycleSim(t testing.TB, banks int) *CycleSimulator {
	t.Helper()
	g := rtm.Geometry{Banks: banks, SubarraysPerBank: 1, DBCsPerSubarray: 1,
		TracksPerDBC: 32, DomainsPerTrack: 64, PortsPerTrack: 1}
	p, err := energy.ForDBCs(4)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCycleSimulator(Config{Geometry: g, Params: p}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// stripes places variable d*width+x at offset x of DBC d.
func stripes(dbcs, width int) *placement.Placement {
	p := placement.NewEmpty(dbcs)
	for d := range p.DBC {
		for x := 0; x < width; x++ {
			p.DBC[d] = append(p.DBC[d], d*width+x)
		}
	}
	return p
}

func TestCycleTiming(t *testing.T) {
	cfg := cfg4(t) // read 0.84, write 1.14, shift 0.92 ns
	cs, err := NewCycleSimulator(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.readCycles != 1 || cs.writeCycles != 2 || cs.shiftCycles != 1 {
		t.Errorf("1 GHz cycles = %d/%d/%d, want read 1 / write 2 / shift 1",
			cs.readCycles, cs.writeCycles, cs.shiftCycles)
	}
	cs, err = NewCycleSimulator(cfg, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.readCycles != 4 || cs.writeCycles != 5 || cs.shiftCycles != 4 {
		t.Errorf("4 GHz cycles = %d/%d/%d, want 4/5/4", cs.readCycles, cs.writeCycles, cs.shiftCycles)
	}
	for _, clock := range []float64{0, -1, math.NaN()} {
		if _, err := NewCycleSimulator(cfg, clock); err == nil {
			t.Errorf("clock %v accepted", clock)
		}
	}
	bad := cfg
	bad.Geometry.Banks = 0
	if _, err := NewCycleSimulator(bad, 1.0); err == nil {
		t.Error("zero banks accepted")
	}
}

// The serialized run counts the analytic model's events, and its cycles
// are the sum of the per-event cycle costs.
func TestCycleSerializedMatchesAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cs, err := NewCycleSimulator(cfg4(t), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		nv := 2 + rng.Intn(12)
		seq := &trace.Sequence{}
		for i := 0; i < nv; i++ {
			seq.Names = append(seq.Names, string(rune('a'+i)))
		}
		for i, n := 0, 20+rng.Intn(80); i < n; i++ {
			seq.Append(rng.Intn(nv), rng.Intn(4) == 0)
		}
		r, err := placement.DMA(trace.Analyze(seq), 4, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantShifts, err := placement.ShiftCost(seq, r.Placement)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := RunCycles(cs, seq, r.Placement, true)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Counts.Shifts != wantShifts {
			t.Fatalf("trial %d: cycle-view shifts %d != analytic %d", trial, stats.Counts.Shifts, wantShifts)
		}
		c := stats.Counts
		if want := c.Reads*cs.readCycles + c.Writes*cs.writeCycles + c.Shifts*cs.shiftCycles; stats.Cycles != want {
			t.Fatalf("trial %d: serialized cycles %d != event sum %d", trial, stats.Cycles, want)
		}
	}
}

// Open-loop execution over several banks finishes before the serialized
// run, with the same events and a busier device.
func TestCycleBankParallelismSpeedsUp(t *testing.T) {
	cs := cycleSim(t, 4)
	// A stream striding across the 4 banks with long shifts each time.
	var vars []int
	for i := 0; i < 64; i++ {
		vars = append(vars, (i%4)*64+(i*13)%64)
	}
	seq := trace.NewSequence(vars...)
	p := stripes(4, 64)
	open, err := RunCycles(cs, seq, p, false)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := RunCycles(cs, seq, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if open.Cycles >= serial.Cycles {
		t.Errorf("open-loop (%d cycles) not faster than serialized (%d)", open.Cycles, serial.Cycles)
	}
	if open.Counts != serial.Counts {
		t.Errorf("counts diverge: %+v vs %+v", open.Counts, serial.Counts)
	}
	if u := open.Utilization(); u <= serial.Utilization() {
		t.Errorf("open-loop utilization %.3f not above serialized %.3f", u, serial.Utilization())
	}
}

func TestCycleQueueWaitAccounting(t *testing.T) {
	// Two same-bank accesses issued together: the second waits exactly
	// the first one's service time.
	cs := cycleSim(t, 1)
	seq := trace.NewSequence(0, 10) // cold: free alignment and a read; then 10 shifts and a read
	stats, err := RunCycles(cs, seq, stripes(1, 11), false)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QueueWaitCycles != 1 {
		t.Errorf("queue wait = %d, want 1 (second waits for first's read)", stats.QueueWaitCycles)
	}
	if stats.Counts.Shifts != 10 {
		t.Errorf("shifts = %d, want 10", stats.Counts.Shifts)
	}
	if stats.MaxQueueDepth != 2 {
		t.Errorf("max queue depth = %d, want 2", stats.MaxQueueDepth)
	}
}

// Property: total busy cycles never exceed banks x makespan, and every
// access is served exactly once, by the bank that holds its DBC (DBCs
// 2b and 2b+1 sit in bank b).
func TestCycleStatsInvariants(t *testing.T) {
	cfg, err := TableIConfig(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Geometry.Banks, cfg.Geometry.DBCsPerSubarray = 4, 2
	cs, err := NewCycleSimulator(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	p := placement.NewEmpty(8)
	for v := 0; v < 256; v++ {
		p.DBC[v%8] = append(p.DBC[v%8], v)
	}
	f := func(raw []uint8) bool {
		seq := &trace.Sequence{Names: make([]string, 256)}
		perBank := make([]int64, 4)
		for _, r := range raw {
			seq.Append(int(r), r%3 == 0)
			perBank[int(r)%8/2]++
		}
		stats, err := RunCycles(cs, seq, p, false)
		if err != nil {
			return false
		}
		var busy int64
		for b := range stats.BusyCycles {
			if stats.PerBankRequests[b] != perBank[b] {
				return false
			}
			busy += stats.BusyCycles[b]
		}
		return busy <= stats.Cycles*int64(len(stats.BusyCycles)) &&
			stats.Counts.Shifts >= 0 &&
			stats.Counts.Accesses() == int64(len(raw))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The cycle view rejects what RunSequence rejects, grows the track for a
// DBC fuller than it, as RunSequence does, and times an empty sequence
// at zero cycles.
func TestCycleErrors(t *testing.T) {
	cfg := cfg4(t)
	cs, err := NewCycleSimulator(cfg, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	seq := trace.NewSequence(0, 1)
	wide := placement.NewEmpty(9)
	wide.DBC[0] = []int{0}
	wide.DBC[8] = []int{1}
	if _, err := RunCycles(cs, seq, wide, true); err == nil {
		t.Error("placement wider than device accepted")
	}
	missing := &placement.Placement{DBC: [][]int{{0}}}
	if _, err := RunCycles(cs, seq, missing, true); err == nil {
		t.Error("unplaced variable accepted")
	}
	tall := stripes(1, 300) // 300 variables on a 256-domain track
	seq = trace.NewSequence(0, 299, 5)
	got, err := RunCycles(cs, seq, tall, true)
	if err != nil {
		t.Fatalf("overfull DBC rejected: %v", err)
	}
	want, err := RunSequence(cfg, seq, tall)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts != want.Counts {
		t.Errorf("overfull DBC: cycle counts %+v, RunSequence %+v", got.Counts, want.Counts)
	}
	empty, err := RunCycles(cs, &trace.Sequence{}, placement.NewEmpty(4), true)
	if err != nil || empty.Cycles != 0 || empty.Counts != (energy.Counts{}) {
		t.Errorf("empty sequence: %+v, %v", empty, err)
	}
}
