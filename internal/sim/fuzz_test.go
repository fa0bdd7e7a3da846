package sim

import (
	"math"
	"testing"

	"repro/internal/energy"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// FuzzSimParity feeds arbitrary byte strings interpreted as (DBC count,
// port count, clock, variable universe, access sequence, DBC assignment,
// offset shuffle) and checks the simulator against every cost layer on
// the iso-capacity device, including placements that overfill the
// track: the replayed shift count equals PortCost's (and, at one port,
// the single-port replay's and the kernel's); the read/write counts
// equal TallyOf's; CostModel prices the counts to Result's energy and
// runtime; and on every bank split the cycle view counts the same
// events, with a serialized run taking exactly the sum of the
// per-access times and never less than the open-loop run. Run in CI's
// fuzz-smoke job.
func FuzzSimParity(f *testing.F) {
	f.Add([]byte{1, 0, 5, 0, 1, 2, 1, 0, 3, 2, 0, 1, 2})
	f.Add([]byte{7, 2, 12, 0, 129, 5, 9, 140, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7})
	f.Add([]byte{3, 1, 99, 0, 70, 99, 140, 3, 64, 65, 200, 1, 2, 3}) // 100 variables on 64-domain tracks
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 4096 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		q := []int{2, 4, 8, 16}[data[0]%4]
		clockGHz := 0.5 * float64(1+data[0]/4%4)
		ports := []int{1, 2, 4}[data[1]%3]
		numVars := 1 + int(data[2])
		body := data[3:]
		cut := len(body) * 2 / 3
		seqBytes, placeBytes := body[:cut], body[cut:]
		if len(seqBytes) == 0 {
			t.Skip()
		}
		s := &trace.Sequence{Names: make([]string, numVars)}
		for _, b := range seqBytes {
			s.Append(int(b)%numVars, b&0x80 != 0)
		}
		// Variables without a placement byte pile into DBC 0, so long
		// universes overfill its track.
		p := placement.NewEmpty(q)
		for v := 0; v < numVars; v++ {
			d := 0
			if v < len(placeBytes) {
				d = int(placeBytes[v]) % q
			}
			p.DBC[d] = append(p.DBC[d], v)
		}
		for bi := numVars; bi+1 < len(placeBytes); bi += 2 {
			d := p.DBC[int(placeBytes[bi])%q]
			if len(d) > 1 {
				i := int(placeBytes[bi+1]) % len(d)
				d[0], d[i] = d[i], d[0]
			}
		}

		g, err := rtm.IsoCapacityGeometry(q, ports)
		if err != nil {
			t.Fatal(err)
		}
		params, err := energy.ForDBCs(q)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Geometry: g, Params: params}
		res, err := RunSequence(cfg, s, p)
		if err != nil {
			t.Fatal(err)
		}
		shifts := res.Counts.Shifts

		m, err := placement.NewPortModel(g.DomainsPerTrack, ports)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := placement.PortCost(s, p, m)
		if err != nil {
			t.Fatal(err)
		}
		if pc != shifts {
			t.Fatalf("q=%d ports=%d: RunSequence %d shifts, PortCost %d", q, ports, shifts, pc)
		}
		if ports == 1 {
			sc, err := placement.ShiftCost(s, p)
			if err != nil {
				t.Fatal(err)
			}
			bd, err := placement.NewCostKernel(s).Breakdown(p)
			if err != nil {
				t.Fatal(err)
			}
			if sc != shifts || bd.Total != shifts {
				t.Fatalf("q=%d: RunSequence %d shifts, ShiftCost %d, kernel %d", q, shifts, sc, bd.Total)
			}
		}
		tally := placement.TallyOf(s, shifts)
		if tally.Reads != res.Counts.Reads || tally.Writes != res.Counts.Writes {
			t.Fatalf("reads/writes %d/%d, TallyOf %d/%d", res.Counts.Reads, res.Counts.Writes, tally.Reads, tally.Writes)
		}
		for _, price := range []struct {
			obj  placement.Objective
			want float64
		}{
			{placement.ObjectiveEnergy, res.Energy.TotalPJ()},
			{placement.ObjectiveRuntime, res.LatencyNS},
		} {
			cm, err := placement.NewCostModel(price.obj, params, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := cm.Price(tally).Scalar
			if math.Abs(got-price.want) > 1e-9*math.Max(math.Abs(got), math.Abs(price.want)) {
				t.Fatalf("%s: CostModel prices %v, Result %v", price.obj, got, price.want)
			}
		}

		c := res.Counts
		for banks := 1; banks <= q; banks *= 2 {
			bc := cfg
			bc.Geometry.Banks, bc.Geometry.DBCsPerSubarray = banks, q/banks
			cs, err := NewCycleSimulator(bc, clockGHz)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := RunCycles(cs, s, p, true)
			if err != nil {
				t.Fatal(err)
			}
			open, err := RunCycles(cs, s, p, false)
			if err != nil {
				t.Fatal(err)
			}
			if serial.Counts != c || open.Counts != c {
				t.Fatalf("banks=%d: serialized counts %+v, open-loop %+v, RunSequence %+v", banks, serial.Counts, open.Counts, c)
			}
			if want := c.Reads*cs.readCycles + c.Writes*cs.writeCycles + c.Shifts*cs.shiftCycles; serial.Cycles != want {
				t.Fatalf("banks=%d: serialized %d cycles, event sum %d", banks, serial.Cycles, want)
			}
			if serial.Cycles < open.Cycles {
				t.Fatalf("banks=%d: serialized %d cycles, open-loop %d", banks, serial.Cycles, open.Cycles)
			}
		}
	})
}
