package experiments

import (
	"fmt"
	"strings"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
)

// Consolidate is the server-consolidation experiment the paper's §6
// discussion motivates: several tenants time-share one FlatFlash device, and
// we measure what consolidation costs each of them. For every (tenant count,
// mix) grid point the mtsim engine runs each tenant solo on a private device
// and then consolidated on the shared one, reporting per-tenant slowdown,
// tail latency, the arbiter's final DRAM budget, and a Jain fairness index.
func Consolidate(s Scale) *Report {
	dev := core.DefaultConfig(
		uint64(s.pick(8<<20, 32<<20)),
		uint64(s.pick(256<<10, 1<<20)),
	)
	cfg := mtsim.SweepConfig{
		Device:       &dev,
		TenantCounts: []int{1, 2, 4, s.pick(6, 8)},
		MixSpecs:     []string{"zipf", "zipf+uniform+ycsb-b+txlog"},
		Seeds:        []uint64{1},
		Ops:          s.pick(300, 2000),
		RegionBytes:  uint64(s.pick(128<<10, 512<<10)),
		Think:        sim.Micros(1),
		Tracer:       current.tracer,
		Registry:     current.reg,
		Attrib:       current.att != nil,
		SLO:          current.att.SLO(),
		Flight:       current.rec,
	}
	rep := &Report{
		ID:     "consolidate",
		Title:  "Server consolidation: per-tenant slowdown vs tenant count",
		Header: []string{"tenants", "mixes", "tenant", "mix", "slowdown", "p99(us)", "solo-p99(us)", "dram-budget"},
	}
	res, err := mtsim.Sweep(cfg)
	if err != nil {
		rep.AddNote("sweep failed: %v", err)
		return rep
	}
	for _, p := range res.Points {
		for _, tr := range p.Res.Tenants {
			rep.AddRow(
				fmt.Sprint(p.TenantCount),
				p.MixSpec,
				fmt.Sprint(tr.ID),
				tr.Spec.Mix,
				fmt.Sprintf("%.2fx", tr.Slowdown()),
				fmt.Sprintf("%.1f", tr.Shared.Percentile(99).Micros()),
				fmt.Sprintf("%.1f", tr.Solo.Percentile(99).Micros()),
				fmt.Sprint(tr.Budget),
			)
		}
		rep.AddMetric(
			fmt.Sprintf("fairness[n=%d,%s]", p.TenantCount, p.MixSpec),
			fmt.Sprintf("%.3f", p.Res.Fairness),
		)
	}
	if current.att != nil {
		// Each sweep point carries its own attribution engine; surface its
		// per-tenant latency-budget table in the report footnotes.
		for _, p := range res.Points {
			if p.Res.Attribution == nil {
				continue
			}
			var b strings.Builder
			if err := p.Res.Attribution.WriteBudget(&b); err == nil {
				rep.AddNote("latency budget [n=%d,%s]:", p.TenantCount, p.MixSpec)
				for _, ln := range strings.Split(strings.TrimRight(b.String(), "\n"), "\n") {
					rep.AddNote("%s", ln)
				}
			}
		}
	}
	rep.AddNote("slowdown = consolidated mean latency / solo mean latency (same workload, same seed, private idle device)")
	rep.AddNote("fairness = Jain index over per-tenant normalized progress; 1.0 = every tenant pays the same consolidation cost")
	rep.AddNote("mixes cycle across tenants: %s", strings.Join(cfg.MixSpecs, " | "))
	return rep
}
