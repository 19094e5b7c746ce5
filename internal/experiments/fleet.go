package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

// FleetSweep is the scale-out extension: M FlatFlash devices behind a
// consistent-hash front end absorb open-loop traffic far beyond what one
// device sustains. The sweep crosses shard count with offered rate and
// reports fleet throughput, shed rate, per-point p99, and the Jain fairness
// of shard load — the paper's single-device byte-interface stretched to the
// "millions of users" regime.
func FleetSweep(s Scale) *Report {
	dev := core.DefaultConfig(
		uint64(s.pick(8<<20, 16<<20)),
		uint64(s.pick(512<<10, 1<<20)),
	)
	slo := 400 * sim.Microsecond
	cfg := fleet.Config{
		Device: &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:       "zipf",
			DiurnalAmp:    0.4,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 22,
			RegionBytes:   uint64(s.pick(256<<10, 1<<20)),
			Ops:           s.pick(2000, 20000),
		},
		Server: mtsim.ServerOptions{
			SLO:           slo,
			ShedWait:      slo / 8,
			IssueOverhead: 300,
			Flight:        current.rec,
		},
	}
	rep := &Report{
		ID:     "fleet",
		Title:  "Fleet scale-out: shards x offered rate under open-loop load",
		Header: []string{"shards", "rate(op/s)", "admitted", "shed-rate", "ops/s", "p99(us)", "fairness"},
	}
	shards := []int{1, 2, s.pick(4, 8)}
	rates := []float64{50_000, 500_000, float64(s.pick(2_000_000, 4_000_000))}
	res, err := fleet.Sweep(cfg, shards, rates, []uint64{1})
	if err != nil {
		rep.AddNote("sweep failed: %v", err)
		return rep
	}
	for _, p := range res.Points {
		rep.AddRow(
			fmt.Sprint(p.Shards),
			fmt.Sprintf("%.0f", p.Rate),
			fmt.Sprint(p.Res.Admitted()),
			fmt.Sprintf("%.3f", p.Res.ShedRate()),
			fmt.Sprintf("%.0f", p.Res.Throughput()),
			fmt.Sprintf("%.1f", p.Res.Hist().Percentile(99).Micros()),
			fmt.Sprintf("%.3f", p.Res.Fairness()),
		)
	}
	rep.AddNote("open-loop Poisson arrivals with a diurnal curve (amp %.1f); admission sheds when the estimated queue wait exceeds %v", cfg.Arrivals.DiurnalAmp, cfg.Server.ShedWait.Micros())
	rep.AddNote("SLO %vus: under overload the shed rate climbs while the admitted p99 holds under the SLO", slo.Micros())
	rep.AddNote("fairness = Jain index over per-shard admitted load; idle shards count against it")
	return rep
}
