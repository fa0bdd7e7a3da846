// Package rtm models the racetrack-memory device: its geometry (banks,
// subarrays, domain block clusters, nanotracks, domains), the access-port
// configuration, and a shift engine that tracks track alignment and counts
// the shift operations an RTM controller would issue.
//
// The model follows section II-A of "Generalized Data Placement Strategies
// for Racetrack Memories" (DATE 2020): a DBC groups T nanotracks; a memory
// object (one T-bit word) is bit-interleaved across the T tracks at one
// domain position, so accessing it means shifting all tracks of the DBC in
// lock-step until that position is under an access port.
package rtm

import (
	"errors"
	"fmt"
)

// Geometry describes one RTM array instance.
type Geometry struct {
	// Banks is the number of independent banks. Placement experiments in
	// the paper use a single bank.
	Banks int
	// SubarraysPerBank is the number of subarrays per bank.
	SubarraysPerBank int
	// DBCsPerSubarray is the number of domain block clusters per subarray.
	DBCsPerSubarray int
	// TracksPerDBC is T, the number of nanotracks ganged per DBC: one bit
	// of a word per track. Table I of the paper uses 32.
	TracksPerDBC int
	// DomainsPerTrack is K, the number of data domains (bits) per track,
	// i.e. the number of word locations per DBC.
	DomainsPerTrack int
	// PortsPerTrack is the number of read/write access ports per track.
	// The paper's evaluation uses 1; the generalized model accepts more.
	PortsPerTrack int
}

// Validate checks that the geometry is physically meaningful.
func (g Geometry) Validate() error {
	switch {
	case g.Banks <= 0:
		return errors.New("rtm: Banks must be positive")
	case g.SubarraysPerBank <= 0:
		return errors.New("rtm: SubarraysPerBank must be positive")
	case g.DBCsPerSubarray <= 0:
		return errors.New("rtm: DBCsPerSubarray must be positive")
	case g.TracksPerDBC <= 0:
		return errors.New("rtm: TracksPerDBC must be positive")
	case g.DomainsPerTrack <= 0:
		return errors.New("rtm: DomainsPerTrack must be positive")
	case g.PortsPerTrack <= 0:
		return errors.New("rtm: PortsPerTrack must be positive")
	case g.PortsPerTrack > g.DomainsPerTrack:
		return fmt.Errorf("rtm: %d ports exceed %d domains per track",
			g.PortsPerTrack, g.DomainsPerTrack)
	}
	return nil
}

// DBCs returns the total number of DBCs in the array.
func (g Geometry) DBCs() int { return g.Banks * g.SubarraysPerBank * g.DBCsPerSubarray }

// CapacityBits returns the data capacity of the array in bits.
func (g Geometry) CapacityBits() int64 {
	return int64(g.DBCs()) * int64(g.TracksPerDBC) * int64(g.DomainsPerTrack)
}

// WordsPerDBC returns the number of word locations a DBC offers, which is
// the number of domains per track (one word per domain position).
func (g Geometry) WordsPerDBC() int { return g.DomainsPerTrack }

// PortPositions returns the geometry's canonical access-port layout:
// PortsPerTrack ports evenly spread over DomainsPerTrack domains (see
// the package-level PortPositions rule). The geometry must be valid.
func (g Geometry) PortPositions() ([]int, error) {
	return PortPositions(g.DomainsPerTrack, g.PortsPerTrack)
}

// String summarizes the geometry.
func (g Geometry) String() string {
	return fmt.Sprintf("%d bank(s) x %d subarray(s) x %d DBC(s), %d tracks/DBC, %d domains/track, %d port(s)/track (%.1f KiB)",
		g.Banks, g.SubarraysPerBank, g.DBCsPerSubarray, g.TracksPerDBC,
		g.DomainsPerTrack, g.PortsPerTrack, float64(g.CapacityBits())/8192)
}

// TableIGeometry returns the iso-capacity 4 KiB geometry of Table I for the
// given DBC count (2, 4, 8 or 16): 32 tracks per DBC and 512/256/128/64
// domains per track respectively.
func TableIGeometry(dbcs int) (Geometry, error) {
	switch dbcs {
	case 2, 4, 8, 16:
		return IsoCapacityGeometry(dbcs, 1)
	}
	return Geometry{}, fmt.Errorf("rtm: no Table I configuration with %d DBCs (want 2, 4, 8 or 16)", dbcs)
}

// IsoCapacityGeometry generalizes the Table I rows to any DBC and port
// count under the same iso-capacity rule: 32 tracks per DBC and 1024
// words total, so DomainsPerTrack is 1024/dbcs (floored at the port
// count so the layout stays constructible). For dbcs in {2, 4, 8, 16}
// and one port this is exactly the Table I device. It is the single
// deterministic device rule the multi-port cost stack derives domain
// counts and port spacings from when no explicit geometry is at hand
// (see placement.Options.Ports and eval.PortsSweep), which keeps the
// optimizers' objective aligned with what sim.RunSequence later replays.
func IsoCapacityGeometry(dbcs, ports int) (Geometry, error) {
	if dbcs <= 0 {
		return Geometry{}, fmt.Errorf("rtm: DBC count must be positive, got %d", dbcs)
	}
	if ports <= 0 {
		return Geometry{}, fmt.Errorf("rtm: port count must be positive, got %d", ports)
	}
	domains := isoCapacityWords / dbcs
	if domains < ports {
		domains = ports
	}
	if domains < 1 {
		domains = 1
	}
	g := Geometry{
		Banks:            1,
		SubarraysPerBank: 1,
		DBCsPerSubarray:  dbcs,
		TracksPerDBC:     32,
		DomainsPerTrack:  domains,
		PortsPerTrack:    ports,
	}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// isoCapacityWords is the word total of the paper's 4 KiB array: 1024
// words of TracksPerDBC = 32 bits.
const isoCapacityWords = 1024

// TableIDBCCounts lists the DBC counts evaluated in the paper.
func TableIDBCCounts() []int { return []int{2, 4, 8, 16} }
