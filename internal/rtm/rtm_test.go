package rtm

import (
	"testing"
	"testing/quick"
)

func TestTableIGeometry(t *testing.T) {
	for _, dbcs := range TableIDBCCounts() {
		g, err := TableIGeometry(dbcs)
		if err != nil {
			t.Fatalf("TableIGeometry(%d): %v", dbcs, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("geometry %d DBCs invalid: %v", dbcs, err)
		}
		// Iso-capacity: always 4 KiB.
		if got := g.CapacityBits(); got != 4*1024*8 {
			t.Errorf("%d DBCs: capacity = %d bits, want 32768", dbcs, got)
		}
		if g.TracksPerDBC != 32 {
			t.Errorf("%d DBCs: tracks = %d, want 32", dbcs, g.TracksPerDBC)
		}
		if g.DBCs() != dbcs {
			t.Errorf("DBCs() = %d, want %d", g.DBCs(), dbcs)
		}
	}
	if _, err := TableIGeometry(3); err == nil {
		t.Error("TableIGeometry(3) should fail")
	}
}

func TestTableIDomainCounts(t *testing.T) {
	want := map[int]int{2: 512, 4: 256, 8: 128, 16: 64}
	for dbcs, domains := range want {
		g, _ := TableIGeometry(dbcs)
		if g.DomainsPerTrack != domains {
			t.Errorf("%d DBCs: domains = %d, want %d", dbcs, g.DomainsPerTrack, domains)
		}
		if g.WordsPerDBC() != domains {
			t.Errorf("%d DBCs: words/DBC = %d, want %d", dbcs, g.WordsPerDBC(), domains)
		}
	}
}

func TestGeometryValidate(t *testing.T) {
	good := Geometry{Banks: 1, SubarraysPerBank: 1, DBCsPerSubarray: 2,
		TracksPerDBC: 32, DomainsPerTrack: 64, PortsPerTrack: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid geometry rejected: %v", err)
	}
	cases := []Geometry{
		{},
		{Banks: 1, SubarraysPerBank: 1, DBCsPerSubarray: 1, TracksPerDBC: 32, DomainsPerTrack: 4, PortsPerTrack: 5},
		{Banks: 1, SubarraysPerBank: 1, DBCsPerSubarray: 1, TracksPerDBC: 32, DomainsPerTrack: 4, PortsPerTrack: 0},
		{Banks: -1, SubarraysPerBank: 1, DBCsPerSubarray: 1, TracksPerDBC: 32, DomainsPerTrack: 4, PortsPerTrack: 1},
	}
	for i, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
	}
}

func TestShiftEngineSinglePort(t *testing.T) {
	e, err := NewShiftEngine(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cold start is free.
	if c, _ := e.Access(5); c != 0 {
		t.Errorf("cold access cost = %d, want 0", c)
	}
	// |7-5| = 2.
	if c, _ := e.Access(7); c != 2 {
		t.Errorf("5->7 cost = %d, want 2", c)
	}
	// Same location: free.
	if c, _ := e.Access(7); c != 0 {
		t.Errorf("7->7 cost = %d, want 0", c)
	}
	if c, _ := e.Access(0); c != 7 {
		t.Errorf("7->0 cost = %d, want 7", c)
	}
	if e.Shifts() != 9 {
		t.Errorf("total shifts = %d, want 9", e.Shifts())
	}
	if e.Accesses() != 4 {
		t.Errorf("accesses = %d, want 4", e.Accesses())
	}
}

func TestShiftEngineTwoPorts(t *testing.T) {
	// Ports at 0 and 8 for 16 domains.
	e, _ := NewShiftEngine(16, 2)
	ports := e.Ports()
	if len(ports) != 2 || ports[0] != 0 || ports[1] != 8 {
		t.Fatalf("ports = %v, want [0 8]", ports)
	}
	// Cold: free, aligns port 8 under location 9 (nearest).
	if c, _ := e.Access(9); c != 0 {
		t.Errorf("cold cost = %d, want 0", c)
	}
	// offset is now 1 (9-8). Accessing 2: via port 0 needs offset 2
	// (dist 1); via port 8 needs offset -6 (dist 7). Expect 1.
	if c, _ := e.Access(2); c != 1 {
		t.Errorf("9->2 with 2 ports cost = %d, want 1", c)
	}
}

func TestShiftEngineErrors(t *testing.T) {
	if _, err := NewShiftEngine(0, 1); err == nil {
		t.Error("0 domains accepted")
	}
	if _, err := NewShiftEngine(8, 0); err == nil {
		t.Error("0 ports accepted")
	}
	if _, err := NewShiftEngine(8, 9); err == nil {
		t.Error("more ports than domains accepted")
	}
	e, _ := NewShiftEngine(8, 1)
	if _, err := e.Access(8); err == nil {
		t.Error("out-of-range access accepted")
	}
	if _, err := e.Access(-1); err == nil {
		t.Error("negative access accepted")
	}
	if _, err := e.CostOf(99); err == nil {
		t.Error("out-of-range CostOf accepted")
	}
}

func TestCostOfMatchesAccess(t *testing.T) {
	f := func(raw []uint8) bool {
		e, _ := NewShiftEngine(32, 1)
		for _, r := range raw {
			x := int(r % 32)
			want, _ := e.CostOf(x)
			got, _ := e.Access(x)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: with a single port the engine's cost equals |x - prev| and the
// total equals the sum of absolute first differences.
func TestSinglePortMatchesAbsoluteDifference(t *testing.T) {
	f := func(raw []uint8) bool {
		e, _ := NewShiftEngine(64, 1)
		prev := -1
		var want int64
		for _, r := range raw {
			x := int(r % 64)
			c, err := e.Access(x)
			if err != nil {
				return false
			}
			exp := 0
			if prev >= 0 {
				exp = abs(x - prev)
			}
			if c != exp {
				return false
			}
			want += int64(exp)
			prev = x
		}
		return e.Shifts() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: more ports never cost more, access by access, for the same
// request stream.
func TestMorePortsNeverWorse(t *testing.T) {
	f := func(raw []uint8, portsRaw uint8) bool {
		p := int(portsRaw%4) + 1
		e1, _ := NewShiftEngine(64, 1)
		ep, _ := NewShiftEngine(64, p)
		var t1, tp int64
		for _, r := range raw {
			x := int(r % 64)
			c1, _ := e1.Access(x)
			cp, _ := ep.Access(x)
			t1 += int64(c1)
			tp += int64(cp)
		}
		// Note: per-access greedy with more ports could in theory lose on
		// adversarial streams, but totals over the same greedy policy with
		// strictly more aligned ports at position 0 plus extras are safe
		// per-access: the 1-port engine's chosen offset is always available
		// to the p-port engine too, only compared against more options.
		return tp <= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEngineReset(t *testing.T) {
	e, _ := NewShiftEngine(8, 1)
	e.Access(3)
	e.Access(7)
	e.Reset()
	if e.Shifts() != 0 || e.Accesses() != 0 || e.offset != 0 {
		t.Error("Reset left state behind")
	}
	// Cold again: free access.
	if c, _ := e.Access(6); c != 0 {
		t.Error("engine not cold after Reset")
	}
}

func TestPortPositionsRule(t *testing.T) {
	pos, err := PortPositions(8, 2)
	if err != nil || len(pos) != 2 || pos[0] != 0 || pos[1] != 4 {
		t.Fatalf("PortPositions(8,2) = %v, %v", pos, err)
	}
	pos, err = PortPositions(9, 3)
	if err != nil || pos[0] != 0 || pos[1] != 3 || pos[2] != 6 {
		t.Fatalf("PortPositions(9,3) = %v, %v", pos, err)
	}
	if _, err := PortPositions(0, 1); err == nil {
		t.Error("zero domains accepted")
	}
	if _, err := PortPositions(4, 5); err == nil {
		t.Error("more ports than domains accepted")
	}
	g, err := TableIGeometry(4)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := g.PortPositions()
	if err != nil || len(gp) != 1 || gp[0] != 0 {
		t.Fatalf("Table I port layout = %v, %v", gp, err)
	}
}

func TestNewShiftEngineAt(t *testing.T) {
	// A grown track keeps the fabricated layout: 12 domains, ports at
	// the 8-domain geometry's positions.
	e, err := NewShiftEngineAt(12, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Ports(); got[0] != 0 || got[1] != 4 {
		t.Fatalf("ports = %v", got)
	}
	// Equivalent accesses through NewShiftEngine(12, 2) would use ports
	// {0, 6}; pin the layouts apart.
	e2, _ := NewShiftEngine(12, 2)
	if got := e2.Ports(); got[1] == 4 {
		t.Fatalf("respaced layout %v unexpectedly equals fabricated layout", got)
	}
	if _, err := NewShiftEngineAt(4, nil); err == nil {
		t.Error("empty layout accepted")
	}
	if _, err := NewShiftEngineAt(4, []int{0, 4}); err == nil {
		t.Error("out-of-range port accepted")
	}
	if _, err := NewShiftEngineAt(4, []int{2, 1}); err == nil {
		t.Error("non-increasing layout accepted")
	}
}

func TestIsoCapacityGeometry(t *testing.T) {
	for _, q := range TableIDBCCounts() {
		ti, err := TableIGeometry(q)
		if err != nil {
			t.Fatal(err)
		}
		iso, err := IsoCapacityGeometry(q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if ti != iso {
			t.Errorf("q=%d: Table I %+v != iso-capacity %+v", q, ti, iso)
		}
	}
	g, err := IsoCapacityGeometry(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.DomainsPerTrack != 341 || g.PortsPerTrack != 2 {
		t.Errorf("IsoCapacityGeometry(3,2) = %+v", g)
	}
	// Degenerate: domain count floored at the port count.
	g, err = IsoCapacityGeometry(2048, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.DomainsPerTrack != 3 {
		t.Errorf("floor failed: %+v", g)
	}
	if _, err := IsoCapacityGeometry(0, 1); err == nil {
		t.Error("zero DBCs accepted")
	}
	if _, err := IsoCapacityGeometry(4, 0); err == nil {
		t.Error("zero ports accepted")
	}
}
