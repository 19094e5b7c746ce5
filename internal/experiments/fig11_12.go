package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/kvstore"
)

// Fig11 reproduces Figure 11: Redis/YCSB 99th-percentile latency across the
// three systems as the working set grows relative to DRAM (SSD:DRAM=256).
// Fig12 reproduces Figure 12: average latency and FlatFlash's cache hit
// ratio on the same runs. Both figures view the same 18-cell sweep, but
// Fig11 and Fig12 each run all of it through runYCSB and keep only their
// own view, so a pass that prints both runs the sweep twice.
func Fig11(scale Scale) []*Report { return runYCSB(scale, true) }

// Fig12 reports the average-latency/hit-ratio view of the YCSB sweep.
func Fig12(scale Scale) []*Report { return runYCSB(scale, false) }

func runYCSB(scale Scale, tail bool) []*Report {
	const (
		ssdBytes  = 32 << 20
		dramBytes = ssdBytes / 256 // 128 KB
	)
	ops := scale.pick(6000, 24000)
	wls := []byte{'B', 'D'}
	mults := []uint64{4, 8, 16}
	names := sysNames
	// Cell i is system i%3 at working set mults[(i/3)%3] on workload wls[i/9].
	perRow, perRep := len(names), len(names)*len(mults)
	runs := fanOut(len(wls)*perRep, func(e env, i int) (counted[kvstore.Result], error) {
		return kvCell(e, names[i%perRow], core.DefaultConfig(ssdBytes, dramBytes), kvstore.Config{
			Records: dramBytes * mults[i/perRow%len(mults)] / kvstore.RecordSize,
			Ops:     ops, Workload: wls[i/perRep], Seed: 11,
		})
	})
	var reports []*Report
	for _, wl := range wls {
		id, title := "fig11", "YCSB p99 latency"
		if !tail {
			id, title = "fig12", "YCSB average latency"
		}
		rep := &Report{
			ID:    fmt.Sprintf("%s-%c", id, wl),
			Title: fmt.Sprintf("%s, workload %c (SSD:DRAM=256)", title, wl),
			Header: []string{"WSS/DRAM", "FlatFlash", "UnifiedMMap", "TraditionalStack",
				"FF hit-ratio", "FF vs UM"},
		}
		for _, mult := range mults {
			row := []string{fmt.Sprintf("%dx", mult)}
			var vals []float64
			for _, run := range runs[:perRow] {
				v := run.res.Avg
				if tail {
					v = run.res.P99
				}
				vals = append(vals, float64(v))
				row = append(row, us(v))
			}
			row = append(row, fmt.Sprintf("%.2f", runs[0].res.HitRatio), ratio(vals[1], vals[0])) // runs[0] is FlatFlash
			rep.AddRow(row...)
			runs = runs[perRow:]
		}
		if tail {
			rep.AddNote("paper: FlatFlash reduces p99 by 2.0-2.8x vs UnifiedMMap (promotion avoids low-reuse moves)")
		} else {
			rep.AddNote("paper: FlatFlash improves average latency by 1.1-1.4x vs UnifiedMMap")
		}
		reports = append(reports, rep)
	}
	return reports
}

// kvCell runs the YCSB key-value workload on a fresh hierarchy.
//
//flatflash:lp
func kvCell(e env, name string, cfg core.Config, kc kvstore.Config) (counted[kvstore.Result], error) {
	h, err := e.build(name, cfg)
	if err != nil {
		return counted[kvstore.Result]{}, err
	}
	res, err := kvstore.Run(h, kc)
	return counted[kvstore.Result]{res, h.Counters()}, err
}
