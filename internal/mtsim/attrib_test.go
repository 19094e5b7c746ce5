package mtsim

import (
	"bytes"
	"strings"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// TestAttributionReconcilesWithLatencies is the cross-layer reconciliation
// check: for every tenant, the attribution account's exact end-to-end sum
// must equal the sum of the per-op latencies the co-scheduler recorded, and
// the per-component sums must add up to that total exactly.
func TestAttributionReconcilesWithLatencies(t *testing.T) {
	cfg := testConfig(3)
	cfg.Attrib = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution == nil {
		t.Fatal("Attrib did not attach an attribution engine")
	}
	accounts := res.Attribution.Accounts()
	if len(accounts) != len(res.Tenants) {
		t.Fatalf("%d accounts for %d tenants", len(accounts), len(res.Tenants))
	}
	for i, tr := range res.Tenants {
		acct := accounts[i]
		// Barrier ops open two attribution windows (access + persist) but
		// the co-scheduler records their latency as one sample, so the
		// window count can exceed — never undercut — the op count, while
		// the latency sums must agree exactly.
		if acct.Total().Count() < tr.Shared.Count() {
			t.Fatalf("tenant %d: %d ops but only %d attribution windows", i, tr.Shared.Count(), acct.Total().Count())
		}
		if tr.Shared.Sum() != acct.SumTotal() {
			t.Fatalf("tenant %d: recorded latency sum %d != attributed total %d",
				i, tr.Shared.Sum(), acct.SumTotal())
		}
		var comps int64
		for c := telemetry.Component(0); c < telemetry.NumComponents; c++ {
			comps += acct.Sum(c)
		}
		if comps != acct.SumTotal() {
			t.Fatalf("tenant %d: component sums %d != total %d", i, comps, acct.SumTotal())
		}
	}
}

// TestAttributionReportDeterministic renders a consolidation report with the
// budget table twice and checks byte identity, and that the table is present
// with per-tenant rows.
func TestAttributionReportDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		cfg := testConfig(2)
		cfg.SLO = sim.Micros(5)
		cfg.Flight = telemetry.NewFlightRecorder(256, 2)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Write(w); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Flight.WriteDump(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same config, different report+dump:\n--- A ---\n%s--- B ---\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"latency budget", "tenant0", "tenant1", "total", "slo: violations="} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAttributionOffByDefault checks a plain run carries no attribution and
// renders no budget table, so the zero-config report is unchanged.
func TestAttributionOffByDefault(t *testing.T) {
	res, err := Run(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Attribution != nil {
		t.Fatal("attribution attached without Attrib/SLO")
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "latency budget") {
		t.Fatal("budget table rendered without attribution")
	}
}

// TestSweepAttributionSequentialWithFlight checks a sweep with a shared
// flight recorder still merges deterministically (it forces one worker) and
// every point carries its own attribution engine.
func TestSweepAttributionSequentialWithFlight(t *testing.T) {
	base := Config{
		Device: testDevice(),
		Attrib: true,
		SLO:    sim.Micros(5),
		Flight: telemetry.NewFlightRecorder(256, 4),
	}
	res, err := Sweep(base, TenantSpec{Ops: 150, RegionBytes: 128 << 10},
		[]int{1, 2}, []string{"zipf"}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Points {
		if res.Points[i].Res.Attribution == nil {
			t.Fatalf("point %d missing attribution engine", i)
		}
	}
}
