package placement

import (
	"context"
	"testing"

	"repro/internal/energy"
	"repro/internal/trace"
)

// FuzzKernelParity feeds arbitrary byte strings interpreted as (variable
// universe, access sequence, DBC assignment, offset shuffle) and checks
// that the O(nnz) CostKernel evaluation stays bit-identical to the
// ShiftCost replay oracle, and that the kernel-derived DeltaEvaluator
// agrees with the replay-built one on every DBC. Run in CI's fuzz-smoke
// job alongside FuzzDeltaParity.
func FuzzKernelParity(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 2, 3, 4, 0, 1, 2, 1, 0, 3, 9, 9})
	f.Add([]byte{3, 1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 7})
	f.Add([]byte{16, 3, 1, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 || len(data) > 4096 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		numVars := 1 + int(data[0]%24)
		q := 1 + int(data[1]%6)
		body := data[2:]

		// First two thirds of the body emit accesses, the rest drives the
		// placement: per-variable DBC choice and an offset shuffle.
		cut := len(body) * 2 / 3
		seqBytes, placeBytes := body[:cut], body[cut:]
		if len(seqBytes) == 0 {
			t.Skip()
		}
		names := make([]string, numVars)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range seqBytes {
			s.Append(int(b)%numVars, false)
		}

		p := NewEmpty(q)
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

		want, err := ShiftCost(s, p)
		if err != nil {
			t.Fatal(err)
		}
		k := NewCostKernel(s)
		got, err := k.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("kernel %d, replay %d\nseq: %v\nplacement: %v", got, want, s, p)
		}
		ks, err := NewCostKernelStream(s.NumVars(), trace.NewSliceReader(s))
		if err != nil {
			t.Fatal(err)
		}
		if sgot, err := ks.Evaluate(p); err != nil || sgot != want {
			t.Fatalf("stream kernel %d (err %v), replay %d\nseq: %v\nplacement: %v", sgot, err, want, s, p)
		}
		for _, d := range p.DBC {
			if len(d) == 0 {
				continue
			}
			ref := NewDeltaEvaluator(s, d)
			der := NewDeltaEvaluatorFromKernel(k, d)
			if ref.Cost() != der.Cost() || ref.Accesses() != der.Accesses() {
				t.Fatalf("DBC %v: replay-built (cost %d, acc %d) vs kernel-derived (cost %d, acc %d)",
					d, ref.Cost(), ref.Accesses(), der.Cost(), der.Accesses())
			}
		}
	})
}

// FuzzGenomeOperators feeds arbitrary byte strings interpreted as
// (variable universe, DBC count, capacity, objective, access sequence,
// operator script) and drives the GA's genome operators the way a
// generation does: crossover of two priced parents, mutations of the
// children, pricing. After every operator the genome's lookup must be
// exactly BuildLookup of its rows and the capacity must hold; after
// pricing, every carried per-DBC cost must be ShiftCostBreakdown's (the
// replay oracle) — or, under a port model, the fitness PortCost — and
// the parents must be untouched. Run in CI's fuzz-smoke job.
func FuzzGenomeOperators(f *testing.F) {
	f.Add([]byte{5, 2, 0, 0, 0, 1, 2, 3, 4, 0, 1, 2, 1, 0, 3, 9, 9, 0, 1, 7, 3, 4, 22})
	f.Add([]byte{9, 3, 1, 2, 1, 5, 2, 8, 0, 3, 7, 1, 4, 6, 2, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{12, 4, 2, 5, 11, 3, 7, 1, 9, 0, 4, 8, 2, 6, 10, 5, 11, 3, 9, 9, 14, 1, 2, 24, 4, 3, 19})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 2048 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		numVars := 1 + int(data[0]%24)
		q := 1 + int(data[1]%6)
		flags, knob := data[2], int(data[3])
		body := data[4:]
		cut := len(body) / 2
		names := make([]string, numVars)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range body[:cut] {
			s.Append(int(b)%numVars, false)
		}
		n := len(trace.Analyze(s).ByFirstUse())
		if n == 0 {
			t.Skip()
		}
		cfg := quickGA(int64(knob))
		cfg.Mu = 4
		if flags&1 != 0 {
			cfg.Capacity = (n+q-1)/q + knob%3
		}
		if flags&2 != 0 {
			pm, err := NewPortModel(2+knob%12, 2)
			if err != nil {
				t.Skip()
			}
			cfg.Port = pm
		}
		r := testGARun(t, s, q, cfg)
		check := func(step string, g *genome) {
			t.Helper()
			if err := checkGenome(s, g, cfg.Capacity); err != nil {
				t.Fatalf("%s: %v\nseq: %v", step, err, s)
			}
		}
		pool := append([]*genome(nil), r.pop...)
		for script := body[cut:]; len(script) >= 3; script = script[3:] {
			p1, p2 := pool[int(script[0])%len(pool)], pool[int(script[1])%len(pool)]
			before1, before2 := p1.Clone(), p2.Clone()
			kids := [2]*genome{}
			kids[0], kids[1] = r.crossover(p1, p2)
			for k, op := range [2]int{int(script[2] % 5), int(script[2] / 5 % 5)} {
				c := kids[k]
				check("crossover", c)
				if op == 0 {
					continue
				}
				if c == p1 || c == p2 {
					c = r.child(c)
				}
				switch op {
				case 1:
					r.mutateMove(c)
				case 2:
					r.mutateTranspose(c)
				case 3:
					r.mutatePermute(c)
				default:
					r.mutateImprove(c)
				}
				check("mutation", c)
				kids[k] = c
			}
			for _, g := range []*genome{kids[0], kids[1], p1, p2} {
				r.fit[0].price(g)
				if err := checkPriced(s, g, cfg.Port); err != nil {
					t.Fatalf("%v\nseq: %v", err, s)
				}
			}
			check("parent", p1)
			check("parent", p2)
			if !p1.Equal(before1) || !p2.Equal(before2) {
				t.Fatalf("operators changed a parent: %v, %v became %v, %v\nseq: %v", before1, before2, p1, p2, s)
			}
			pool = append(pool, kids[0], kids[1])
		}
	})
}

// FuzzPortCostParity feeds arbitrary byte strings interpreted as
// (variable universe, DBC count, port count, layout domains, access
// sequence, DBC assignment, offset shuffle) and checks that the
// allocation-free multi-port evaluator stays bit-identical to the
// EngineCostAt shift-engine oracle for every port layout — including
// tracks grown past the layout's domain count — and that the ports == 1
// case stays bit-identical to the single-port replay oracle and the
// cost kernel. Run in CI's fuzz-smoke job.
func FuzzPortCostParity(f *testing.F) {
	f.Add([]byte{5, 2, 2, 3, 0, 1, 2, 3, 4, 0, 1, 2, 1, 0, 3, 9, 9})
	f.Add([]byte{3, 1, 1, 0, 0, 1, 2, 0, 1, 2, 2, 0, 1, 7})
	f.Add([]byte{16, 3, 4, 20, 1, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 || len(data) > 4096 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		numVars := 1 + int(data[0]%24)
		q := 1 + int(data[1]%6)
		ports := 1 + int(data[2]%6)
		extraDomains := int(data[3] % 32)
		body := data[4:]

		cut := len(body) * 2 / 3
		seqBytes, placeBytes := body[:cut], body[cut:]
		if len(seqBytes) == 0 {
			t.Skip()
		}
		names := make([]string, numVars)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range seqBytes {
			s.Append(int(b)%numVars, false)
		}

		p := NewEmpty(q)
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

		// The layout may derive from a track shorter than the occupancy
		// (the grown-track case) or longer; never shorter than the port
		// count.
		layoutDomains := 1 + extraDomains
		if layoutDomains < ports {
			layoutDomains = ports
		}
		m, err := NewPortModel(layoutDomains, ports)
		if err != nil {
			t.Fatal(err)
		}
		got, err := PortCost(s, p, m)
		if err != nil {
			t.Fatal(err)
		}
		engineDomains := layoutDomains
		if n := p.MaxDBCLen(); n > engineDomains {
			engineDomains = n
		}
		want, err := EngineCostAt(s, p, engineDomains, m.Positions())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("PortCost %d, EngineCostAt %d (ports %d, layout %d)\nseq: %v\nplacement: %v",
				got, want, ports, layoutDomains, s, p)
		}
		if ports == 1 {
			replay, err := ShiftCost(s, p)
			if err != nil {
				t.Fatal(err)
			}
			kernel, err := NewCostKernel(s).Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if got != replay || got != kernel {
				t.Fatalf("single-port identity broken: PortCost %d, ShiftCost %d, kernel %d", got, replay, kernel)
			}
		}
	})
}

// FuzzDeltaParity feeds arbitrary byte strings interpreted as (variable
// universe, access sequence, move chain) and checks the incremental
// DeltaEvaluator cost stays bit-identical to a full ShiftCost recompute
// after every applied move, and that every predicted delta matches the
// realized change. Run in CI's fuzz-smoke job.
func FuzzDeltaParity(f *testing.F) {
	f.Add([]byte{7, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 1, 2, 1, 0, 3})
	f.Add([]byte{3, 0, 0, 1, 2, 0, 1, 2, 9, 9, 9, 2, 0, 1})
	f.Add([]byte{12, 4, 1, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7, 3, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		// Header: member count k in [3, 34], plus up to 5 extra
		// non-member variables the sequence may also touch.
		k := 3 + int(data[0]%32)
		universe := k + int(data[1]%6)
		body := data[2:]

		// First half of the body emits accesses, second half emits moves.
		half := len(body) / 2
		seqBytes, moveBytes := body[:half], body[half:]
		if len(seqBytes) < 2 {
			t.Skip()
		}
		// Declare the universe explicitly so members the bytes never
		// access still validate against the full ShiftCost path.
		names := make([]string, universe)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range seqBytes {
			s.Append(int(b)%universe, false)
		}

		// Members are variables 0..k-1 in identity order; indices ≥ k
		// exercise non-member transparency.
		order := make([]int, k)
		for i := range order {
			order[i] = i
		}

		e := NewDeltaEvaluator(s, order)
		full := func() int64 {
			member := membership(e.CurrentOrder(), s.NumVars())
			r := s.Restrict(func(v int) bool { return v < len(member) && member[v] })
			c, err := ShiftCost(r, &Placement{DBC: [][]int{e.CurrentOrder()}})
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		if got, want := e.Cost(), full(); got != want {
			t.Fatalf("setup: incremental %d, full %d", got, want)
		}

		for m := 0; m+2 < len(moveBytes); m += 3 {
			i := int(moveBytes[m+1]) % k
			j := int(moveBytes[m+2]) % k
			if i > j {
				i, j = j, i
			}
			before := e.Cost()
			var predicted int64
			if moveBytes[m]%2 == 0 {
				predicted = e.SwapDelta(i, j)
				e.Swap(i, j)
			} else {
				predicted = e.ReverseDelta(i, j)
				e.Reverse(i, j)
			}
			if got := e.Cost() - before; got != predicted {
				t.Fatalf("move %d [%d,%d]: predicted delta %d, applied %d", m, i, j, predicted, got)
			}
			if got, want := e.Cost(), full(); got != want {
				t.Fatalf("move %d [%d,%d]: incremental %d, full %d", m, i, j, got, want)
			}
		}
	})
}

// FuzzPortfolioParity feeds arbitrary byte strings interpreted as
// (variable universe, DBC count, access sequence) and checks that the
// concurrent, bound-pruned portfolio race returns exactly the winner and
// cost of the sequential full-pricing oracle — the determinism claim of
// DESIGN.md §11 under adversarial inputs. The portfolio is the
// constructive heuristics plus DMA-2opt (the search strategies are too
// slow for a fuzz exec and exercise no racing-specific code). Run in
// CI's fuzz-smoke job alongside the kernel parity targets.
func FuzzPortfolioParity(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 2, 3, 4, 0, 1, 2, 1, 0, 3, 9, 9})
	f.Add([]byte{3, 1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 7})
	f.Add([]byte{16, 3, 1, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 1024 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		numVars := 1 + int(data[0]%24)
		q := 1 + int(data[1]%6)
		seqBytes := data[2:]

		names := make([]string, numVars)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for _, b := range seqBytes {
			s.Append(int(b)%numVars, false)
		}

		ids := append(HeuristicStrategies(), StrategyDMATwoOpt)
		var opts Options

		wantID, wantCost := StrategyID(""), int64(-1)
		for _, id := range ids {
			_, c, err := testRegistry.Place(id, s, q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if wantCost < 0 || c < wantCost {
				wantID, wantCost = id, c
			}
		}

		r, err := RacePortfolio(context.Background(), s, q, PortfolioConfig{
			Registry:   testRegistry,
			Strategies: ids, Workers: 4, Options: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Winner != wantID || r.Cost != wantCost {
			t.Fatalf("race (%s, %d) != oracle (%s, %d)\nseq: %v",
				r.Winner, r.Cost, wantID, wantCost, s)
		}
		if got, err := ShiftCost(s, r.Placement); err != nil || got != r.Cost {
			t.Fatalf("winner replay %d (err %v), reported %d", got, err, r.Cost)
		}
	})
}

// FuzzCostModelMonotone feeds arbitrary byte strings interpreted as
// (variable universe, DBC count, fault-rate selector, access sequence,
// two DBC assignments) and checks the reduction every search layer
// relies on (DESIGN.md §15): for random placement pairs, the scalarized
// cost ordering of every constructible objective — shifts, energy,
// runtime, faulty — agrees exactly with the raw shift ordering, and
// equal shift counts price to equal scalars. Run in CI's fuzz-smoke
// job.
func FuzzCostModelMonotone(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 2, 3, 4, 0, 1, 2, 1, 0, 3, 9, 9})
	f.Add([]byte{3, 1, 7, 1, 2, 0, 1, 2, 2, 0, 1, 7})
	f.Add([]byte{16, 3, 255, 5, 9, 2, 6, 10, 3, 7, 11, 0, 4, 8, 250, 1, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 || len(data) > 2048 {
			t.Skip() // bound per-exec cost so the CI smoke job explores widely
		}
		numVars := 1 + int(data[0]%24)
		q := 1 + int(data[1]%6)
		rate := float64(data[2]) / 256 // in [0, 1)
		body := data[3:]

		cut := len(body) / 2
		seqBytes, placeBytes := body[:cut], body[cut:]
		if len(seqBytes) == 0 {
			t.Skip()
		}
		names := make([]string, numVars)
		for i := range names {
			names[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		}
		s := &trace.Sequence{Names: names}
		for i, b := range seqBytes {
			s.Append(int(b)%numVars, i%3 == 0)
		}

		build := func(assign []byte) *Placement {
			p := NewEmpty(q)
			for v := 0; v < numVars; v++ {
				d := 0
				if v < len(assign) {
					d = int(assign[v]) % q
				}
				p.DBC[d] = append(p.DBC[d], v)
			}
			return p
		}
		half := len(placeBytes) / 2
		pa, pb := build(placeBytes[:half]), build(placeBytes[half:])

		sa, err := ShiftCost(s, pa)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := ShiftCost(s, pb)
		if err != nil {
			t.Fatal(err)
		}

		p4, err := energy.ForDBCs(4)
		if err != nil {
			t.Fatal(err)
		}
		models := []*CostModel{DefaultCostModel()}
		for _, obj := range []Objective{ObjectiveShifts, ObjectiveEnergy, ObjectiveRuntime} {
			m, err := NewCostModel(obj, p4, 0)
			if err != nil {
				t.Fatal(err)
			}
			models = append(models, m)
		}
		mf, err := NewCostModel(ObjectiveFaulty, p4, rate)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, mf)

		ta, tb := TallyOf(s, sa), TallyOf(s, sb)
		for _, m := range models {
			ca, cb := m.Price(ta), m.Price(tb)
			switch {
			case sa < sb:
				if !(ca.Scalar < cb.Scalar) {
					t.Fatalf("%s: shifts %d < %d but scalar %v >= %v", m.Spec(), sa, sb, ca.Scalar, cb.Scalar)
				}
			case sa > sb:
				if !(ca.Scalar > cb.Scalar) {
					t.Fatalf("%s: shifts %d > %d but scalar %v <= %v", m.Spec(), sa, sb, ca.Scalar, cb.Scalar)
				}
			default:
				if ca.Scalar != cb.Scalar {
					t.Fatalf("%s: equal shifts %d but scalars %v != %v", m.Spec(), sa, ca.Scalar, cb.Scalar)
				}
			}
			if m.Better(sa, sb) != (sa < sb) {
				t.Fatalf("%s: Better(%d, %d) disagrees with the shift order", m.Spec(), sa, sb)
			}
		}
	})
}
