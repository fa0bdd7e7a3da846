package eval

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/placement"
	"repro/internal/rtm"
	"repro/internal/trace"
)

// PortsRow reports the shift totals for one access-port count, summed
// over the suite. The paper's evaluation uses one port per track and
// argues (section II-B/III) that its heuristic — unlike Chen's
// multi-DBC scheme, which requires two or more ports — works for any
// port count; this extension experiment quantifies that claim with the
// exact multi-port cost model.
//
// Each strategy contributes two numbers per port count:
//
//   - the *replay* total — the placement optimized under the paper's
//     single-port model, replayed on the multi-port device (what an
//     optimizer unaware of the geometry would ship), and
//   - the *re-optimized* total — the strategy re-run with
//     placement.Options.Ports set, so search happens under the true
//     objective.
//
// The constructive heuristics (AFD-OFU, DMA-SR) are cost-model-free,
// so their two totals coincide; the search strategies (DMA-2opt here)
// close the gap the mispriced proxy leaves. Re-optimized totals never
// exceed replay totals at the same port count (the port-aware polish
// starts from the single-port result and only accepts improvements;
// asserted in TestPortsSweepReoptNeverWorse).
type PortsRow struct {
	Ports int
	// Replay-only totals: single-port placements scored at this port
	// count.
	AFDOFU  int64
	DMASR   int64
	DMA2Opt int64
	// Re-optimized totals: each strategy re-run with Options.Ports.
	AFDOFUReopt  int64
	DMASRReopt   int64
	DMA2OptReopt int64
	Improved     float64 // AFDOFU / DMASR (replay totals)
}

// PortsResult is the ports-sweep dataset.
type PortsResult struct {
	Rows []PortsRow
	DBCs int
	// Domains is the per-track domain count of the device the port
	// layouts derive from (the iso-capacity rule for DBCs — the Table I
	// track length for Table I DBC counts). Every row's engines keep
	// this layout; ports never move with a placement's occupancy.
	Domains int
}

// portsStrategies lists the sweep's strategies in presentation order.
func portsStrategies() []placement.StrategyID {
	return []placement.StrategyID{
		placement.StrategyAFDOFU,
		placement.StrategyDMASR,
		placement.StrategyDMATwoOpt,
	}
}

// PortsSweep evaluates shift totals for 1..maxPorts access ports per
// track at the first configured DBC count. The device geometry — and
// with it the port spacing — is fixed by the iso-capacity rule for that
// DBC count and shared with sim.RunSequence, so the scores here are the
// ones a simulation of the same device would produce.
func PortsSweep(ctx context.Context, cfg Config, maxPorts int) (*PortsResult, error) {
	if maxPorts < 1 {
		return nil, fmt.Errorf("eval: maxPorts must be >= 1, got %d", maxPorts)
	}
	q, err := cfg.firstDBCs()
	if err != nil {
		return nil, fmt.Errorf("eval: ports: %w", err)
	}
	geo, err := rtm.IsoCapacityGeometry(q, 1)
	if err != nil {
		return nil, fmt.Errorf("eval: ports: %w", err)
	}
	words := geo.WordsPerDBC()
	if maxPorts > words {
		return nil, fmt.Errorf("eval: %d ports exceed the %d domains of the %d-DBC device", maxPorts, words, q)
	}
	suite, err := cfg.suite()
	if err != nil {
		return nil, err
	}
	strategies := portsStrategies()

	var seqs []*trace.Sequence
	for _, b := range suite {
		seqs = append(seqs, b.Sequences...)
	}
	// The replay rows share one set of single-port placements: place
	// every sequence once per strategy through the engine, then score
	// the placements under each port count's model.
	baseOpts := cfg.options()
	baseOpts.Ports = 0
	var jobs []engine.PlaceJob
	for _, s := range seqs {
		for _, id := range strategies {
			jobs = append(jobs, engine.PlaceJob{Sequence: s, Strategy: id, DBCs: q, Options: baseOpts})
		}
	}
	placed, err := engine.BatchPlace(ctx, jobs, cfg.workers(), cfg.Hooks)
	if err != nil {
		return nil, fmt.Errorf("eval: ports: %w", err)
	}

	res := &PortsResult{DBCs: q, Domains: words}
	ns := len(strategies)
	for ports := 1; ports <= maxPorts; ports++ {
		model, err := placement.NewPortModel(words, ports)
		if err != nil {
			return nil, fmt.Errorf("eval: ports: %w", err)
		}
		replay, err := engine.Map(ctx, len(seqs), cfg.workers(),
			func(_ context.Context, i int) ([]int64, error) {
				costs := make([]int64, ns)
				for si := range strategies {
					c, err := placement.PortCost(seqs[i], placed[i*ns+si].Placement, model)
					if err != nil {
						return nil, err
					}
					costs[si] = c
				}
				return costs, nil
			})
		if err != nil {
			return nil, fmt.Errorf("eval: ports: %w", err)
		}

		// The re-optimized rows re-run the strategies under this port
		// count's objective (Options.Ports); the reported cell cost of
		// each job is already the exact multi-port score. Two cases are
		// provably identical to the replay rows and are copied instead
		// of recomputed: the whole 1-port row (Ports == 1 resolves to
		// the single-port model the base placements used), and the
		// constructive heuristics at any port count (AFD-OFU and DMA-SR
		// never consult the cost model, so re-running them reproduces
		// the same placement). Only DMA-2opt — the strategy whose
		// search actually responds to the objective — is re-placed.
		var reopt []engine.PlaceOutcome
		if ports > 1 {
			reoptOpts := cfg.options()
			reoptOpts.Ports = ports
			reoptOpts.PortDomains = words
			var reoptJobs []engine.PlaceJob
			for _, s := range seqs {
				reoptJobs = append(reoptJobs, engine.PlaceJob{Sequence: s, Strategy: placement.StrategyDMATwoOpt, DBCs: q, Options: reoptOpts})
			}
			reopt, err = engine.BatchPlace(ctx, reoptJobs, cfg.workers(), cfg.Hooks)
			if err != nil {
				return nil, fmt.Errorf("eval: ports: %w", err)
			}
		}

		row := PortsRow{Ports: ports}
		for i := range seqs {
			row.AFDOFU += replay[i][0]
			row.DMASR += replay[i][1]
			row.DMA2Opt += replay[i][2]
			if ports > 1 {
				row.DMA2OptReopt += reopt[i].Shifts
			}
		}
		row.AFDOFUReopt = row.AFDOFU
		row.DMASRReopt = row.DMASR
		if ports == 1 {
			row.DMA2OptReopt = row.DMA2Opt
		}
		row.Improved = ratio(float64(row.AFDOFU), float64(row.DMASR))
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the sweep.
func (r *PortsResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ports sweep — total shifts vs access ports per track (%d DBCs, %d domains/track)\n", r.DBCs, r.Domains)
	fmt.Fprintf(&sb, "replay: single-port placements rescored; reopt: strategies re-optimized per port count\n")
	fmt.Fprintf(&sb, "%6s %12s %12s %12s %12s %12s %12s %12s\n",
		"ports", "AFD-OFU", "DMA-SR", "DMA-2opt", "AFD reopt", "DMA reopt", "2opt reopt", "improvement")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%6d %12d %12d %12d %12d %12d %12d %11.2fx\n",
			row.Ports, row.AFDOFU, row.DMASR, row.DMA2Opt,
			row.AFDOFUReopt, row.DMASRReopt, row.DMA2OptReopt, row.Improved)
	}
	return sb.String()
}
