package placement

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/offsetstone"
	"repro/internal/trace"
)

// gaGolden pins one GA run: its best cost, its evaluation count and an
// FNV-64a digest of the best placement and the per-generation history.
type gaGolden struct {
	cost   int64
	evals  int64
	digest uint64
}

// gaGoldenDigest hashes the best placement (row lengths and members) and
// the history, so any moved PRNG draw or changed fitness shows up.
func gaGoldenDigest(res *GAResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, row := range res.Best.DBC {
		put(int64(len(row)))
		for _, v := range row {
			put(int64(v))
		}
	}
	put(-1)
	for _, c := range res.History {
		put(c)
	}
	return h.Sum64()
}

// TestGAGoldenTrajectory freezes the GA's trajectory on three
// OffsetStone sequences under six configurations: the paper's default
// (with its 200 generations cut to 60, so the race-stress run stays
// short), parallel fitness, a tight DBC capacity, three islands, a
// two-port objective and the memetic GA-2opt operator. Every run is
// seeded with the heuristics, as the registry strategy seeds it. A
// change to the GA's representation or evaluator must leave every
// number here unchanged; only a deliberate change to the search itself
// may re-pin them.
func TestGAGoldenTrajectory(t *testing.T) {
	const q = 4
	seqs := []struct {
		bench string
		idx   int
	}{{"adpcm", 0}, {"gzip", 0}, {"sparse", 0}}
	type config struct {
		name  string
		apply func(cfg *GAConfig, opts *Options, s *trace.Sequence)
	}
	configs := []config{
		{"default", func(*GAConfig, *Options, *trace.Sequence) {}},
		{"workers4", func(cfg *GAConfig, _ *Options, _ *trace.Sequence) { cfg.Workers = 4 }},
		{"capacity", func(_ *GAConfig, opts *Options, s *trace.Sequence) {
			n := len(trace.Analyze(s).ByFirstUse())
			opts.Capacity = (n+q-1)/q + 1
		}},
		{"islands3", func(cfg *GAConfig, _ *Options, _ *trace.Sequence) {
			cfg.Islands, cfg.MigrationEvery = 3, 5
		}},
		{"ports2", func(_ *GAConfig, opts *Options, s *trace.Sequence) {
			// A short track puts the second port inside the DBCs' range,
			// so the objective really differs from the single-port one.
			n := len(trace.Analyze(s).ByFirstUse())
			opts.Ports, opts.PortDomains = 2, (n+q-1)/q
		}},
		{"ga2opt", func(cfg *GAConfig, _ *Options, _ *trace.Sequence) { cfg.ImproveWeight = 3 }},
	}
	want := map[string]gaGolden{
		"adpcm/default":   {45, 6100, 0x15428438ab2ed74f},
		"adpcm/workers4":  {45, 6100, 0x15428438ab2ed74f},
		"adpcm/capacity":  {51, 6100, 0x551b6781675b99f0},
		"adpcm/islands3":  {45, 18300, 0x6e37f9e8522f6f15},
		"adpcm/ports2":    {23, 6100, 0x6e62eddb0e719890},
		"adpcm/ga2opt":    {42, 6100, 0x5dc725e434719c48},
		"gzip/default":    {92, 6100, 0xcc310ad55977cad7},
		"gzip/workers4":   {92, 6100, 0xcc310ad55977cad7},
		"gzip/capacity":   {97, 6100, 0xfd488ac38a57f3f6},
		"gzip/islands3":   {91, 18300, 0xd51c13929b0a75ee},
		"gzip/ports2":     {57, 6100, 0xb05dbd410ba54615},
		"gzip/ga2opt":     {97, 6100, 0x262c42a91ef40ead},
		"sparse/default":  {74, 6100, 0xc13247fb27ad7264},
		"sparse/workers4": {74, 6100, 0xc13247fb27ad7264},
		"sparse/capacity": {134, 6100, 0x4dad8ac85fd63cd2},
		"sparse/islands3": {74, 18300, 0xea33df7c9392a35c},
		"sparse/ports2":   {59, 6100, 0xde64ea773496b142},
		"sparse/ga2opt":   {69, 6100, 0x4840d00124e8b90b},
	}

	for _, sq := range seqs {
		b, err := offsetstone.Generate(sq.bench)
		if err != nil {
			t.Fatal(err)
		}
		s := b.Sequences[sq.idx]
		for _, c := range configs {
			key := sq.bench + "/" + c.name
			cfg := DefaultGAConfig()
			cfg.Generations = 60
			opts := Options{Kernel: NewCostKernel(s)}
			c.apply(&cfg, &opts, s)
			cfg.Capacity = opts.Capacity
			pm, err := opts.PortModelFor(q)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Port = pm
			if pm == nil {
				cfg.Kernel = opts.Kernel
			}
			if cfg.Seeds, err = heuristicSeeds(s, q, opts); err != nil {
				t.Fatal(err)
			}
			res, err := GAContext(context.Background(), s, q, cfg)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if err := res.Best.Validate(s, cfg.Capacity); err != nil {
				t.Fatalf("%s: invalid best placement: %v", key, err)
			}
			got := gaGolden{cost: res.Cost, evals: res.Evaluations, digest: gaGoldenDigest(res)}
			if got != want[key] {
				t.Errorf("%s: got {cost: %d, evals: %d, digest: %#x}, want %+v",
					key, got.cost, got.evals, got.digest, want[key])
			}
		}
	}
}
