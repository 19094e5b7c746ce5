package fleet

import (
	"bytes"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

func testDevice() *core.Config {
	cfg := core.DefaultConfig(16<<20, 1<<20)
	return &cfg
}

func testArrivals(rate float64) workload.ArrivalConfig {
	return workload.ArrivalConfig{
		MixSpec:       "zipf",
		Rate:          rate,
		DiurnalAmp:    0.3,
		DiurnalPeriod: 10 * sim.Millisecond,
		Clients:       1 << 20,
		RegionBytes:   1 << 20,
		Ops:           6000,
		Seed:          7,
	}
}

func testServer() mtsim.ServerOptions {
	return mtsim.ServerOptions{
		SLO:           400 * sim.Microsecond,
		ShedWait:      50 * sim.Microsecond,
		IssueOverhead: 300,
	}
}

func fleetConfig(shards int, rate float64) Config {
	return Config{
		Shards:   shards,
		Device:   testDevice(),
		Arrivals: testArrivals(rate),
		Server:   testServer(),
	}
}

func TestRunValidates(t *testing.T) {
	base := fleetConfig(2, 100000)
	mutate := []func(*Config){
		func(c *Config) { c.Shards = 0 },
		func(c *Config) { c.VNodes = -1 },
		func(c *Config) { c.Arrivals.Rate = 0 },
		func(c *Config) { c.Arrivals.MixSpec = "no-such-mix" },
		func(c *Config) { c.Server.QueueDepth = -1 },
		func(c *Config) { c.MigrateEpoch = -1 },
		func(c *Config) { c.MigratePages = -1 },
		func(c *Config) { r, _ := PinnedRing(3, 0); c.Ring = r }, // ring/shard mismatch
	}
	for i, mut := range mutate {
		cfg := base
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func fleetReport(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestFleetDeterministic(t *testing.T) {
	cfg := fleetConfig(4, 500000)
	a := fleetReport(t, cfg)
	b := fleetReport(t, cfg)
	if a != b {
		t.Fatalf("same config, different reports:\n--- A ---\n%s--- B ---\n%s", a, b)
	}
	cfg.Arrivals.Seed = 8
	if c := fleetReport(t, cfg); c == a {
		t.Fatal("different arrival seed produced an identical report")
	}
}

// The fleet overload gate: at well past the sustainable rate, shedding is
// nonzero while the admitted p99 across the whole fleet stays under the SLO.
func TestFleetOverloadSheds(t *testing.T) {
	// One of these devices sustains ~65k zipf ops/s; 4 shards ~260k. Offer
	// 4M/s, ~15x the fleet's capacity.
	cfg := fleetConfig(4, 4e6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed() == 0 {
		t.Fatal("overloaded fleet shed nothing")
	}
	if rate := res.ShedRate(); rate <= 0 || rate >= 1 {
		t.Fatalf("shed rate %.3f, want in (0, 1)", rate)
	}
	if p99 := res.Hist().Percentile(99); p99 >= cfg.Server.SLO {
		t.Fatalf("fleet admitted p99 %v breaches the %v SLO under shedding", p99, cfg.Server.SLO)
	}
	if res.Admitted() == 0 || res.Throughput() <= 0 {
		t.Fatal("overloaded fleet admitted nothing")
	}
	// Consistent hashing should keep the shards roughly co-loaded.
	if f := res.Fairness(); f < 0.8 {
		t.Fatalf("fleet fairness %.3f under uniform-ring routing, want >= 0.8", f)
	}
}

// Cross-shard migration: pin all traffic to shard 0 with a region much
// larger than its DRAM and a promote-on-first-touch device, so promotion
// churn saturates the frame budget and the migrator hands hot pages to the
// idle shard.
func migrationConfig() Config {
	dev := core.DefaultConfig(16<<20, 256<<10)
	dev.Promotion = core.PromoteAlways
	ring, _ := PinnedRing(2, 0)
	return Config{
		Shards: 2,
		Ring:   ring,
		Device: &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:     "zipf",
			Rate:        60000,
			Clients:     1 << 16,
			RegionBytes: 4 << 20,
			Ops:         20000,
			Seed:        11,
		},
		Server:       mtsim.ServerOptions{QueueDepth: 1 << 16},
		MigrateEpoch: sim.Millisecond,
		MigratePages: 16,
	}
}

func TestFleetMigrationRebalances(t *testing.T) {
	cfg := migrationConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("saturated shard migrated no pages")
	}
	if got := res.Shards[1].Arrivals(); got == 0 {
		t.Fatal("migrated pages routed no traffic to the cool shard")
	}
	// Without migration, the pinned ring starves shard 1 completely.
	cfg2 := migrationConfig()
	cfg2.MigrateEpoch = 0
	base, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if base.Migrations != 0 || base.Shards[1].Arrivals() != 0 {
		t.Fatalf("migration disabled but migrations=%d shard1=%d",
			base.Migrations, base.Shards[1].Arrivals())
	}
	if res.Fairness() <= base.Fairness() {
		t.Fatalf("migration did not improve fairness: %.4f vs %.4f", res.Fairness(), base.Fairness())
	}
}

func TestFleetMigrationDeterministic(t *testing.T) {
	a := fleetReport(t, migrationConfig())
	b := fleetReport(t, migrationConfig())
	if a != b {
		t.Fatalf("migration run not deterministic:\n--- A ---\n%s--- B ---\n%s", a, b)
	}
}

// sweepGrid is a small shards × rates × seeds grid over the test fleet.
type sweepGrid struct {
	base   Config
	shards []int
	rates  []float64
	seeds  []uint64
}

func testGrid() sweepGrid {
	return sweepGrid{
		base:   Config{Device: testDevice(), Arrivals: testArrivals(100000), Server: testServer()},
		shards: []int{1, 2, 4},
		rates:  []float64{100000, 1e6},
		seeds:  []uint64{1, 2},
	}
}

func (g sweepGrid) sweep() (*SweepResult, error) { return Sweep(g.base, g.shards, g.rates, g.seeds) }

func sweepReport(t *testing.T, g sweepGrid) string {
	t.Helper()
	res, err := g.sweep()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// The sweep runs its points on GOMAXPROCS workers, so the report must be
// byte-identical whatever GOMAXPROCS is — the same contract mtsim.Sweep
// keeps.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	var seq, par string
	withGOMAXPROCS(1, func() { seq = sweepReport(t, testGrid()) })
	withGOMAXPROCS(4, func() { par = sweepReport(t, testGrid()) })
	if seq != par {
		t.Fatalf("GOMAXPROCS 1 and 4 reports differ:\n--- 1 ---\n%s--- 4 ---\n%s", seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("empty sweep report")
	}
}

func TestSweepValidates(t *testing.T) {
	g := testGrid()
	g.shards = nil
	if _, err := g.sweep(); err == nil {
		t.Error("empty shard grid accepted")
	}
	g = testGrid()
	g.rates = []float64{-5}
	if _, err := g.sweep(); err == nil {
		t.Error("negative rate accepted")
	}
	g = testGrid()
	g.shards = []int{0}
	if _, err := g.sweep(); err == nil {
		t.Error("zero shard count accepted")
	}
}
