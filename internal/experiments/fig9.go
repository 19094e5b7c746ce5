package experiments

import (
	"fmt"
	"strconv"

	"flatflash/internal/core"
	"flatflash/internal/gups"
)

// Fig9a reproduces Figure 9a: HPCC-GUPS runtime (and page movements)
// across the three systems. Paper: table 32 GB, DRAM 2 GB (16:1), FlatFlash
// 1.5-1.6x faster than UnifiedMMap, 2.5-2.7x than TraditionalStack, with
// 1.3-1.5x fewer page movements.
func Fig9a(scale Scale) *Report {
	const (
		ssdBytes  = 64 << 20
		dramBytes = 128 << 10
	)
	gc := gups.Config{TableBytes: 2 << 20, Updates: scale.pick(5000, 30000), Seed: 7} // table 16x DRAM

	r := &Report{
		ID:     "fig9a",
		Title:  "HPCC-GUPS runtime and page movements (table 16x DRAM)",
		Header: []string{"System", "Runtime", "GUPS", "PageMovements", "Slowdown vs FlatFlash"},
	}
	names := sysNames
	runs := fanOut(len(names), func(e env, i int) (counted[gups.Result], error) {
		return gupsCell(e, names[i], core.DefaultConfig(ssdBytes, dramBytes), gc)
	})
	ffElapsed := runs[0].res.Elapsed // names[0] is FlatFlash
	for i, name := range names {
		res := runs[i].res
		r.AddRow(name, res.Elapsed.String(), fmt.Sprintf("%.6f", res.GUPS),
			fmt.Sprintf("%d", res.PageMovements),
			ratio(float64(res.Elapsed), float64(ffElapsed)))
		for _, n := range []string{"page_movements", "pcie_traffic_bytes", "flash_programs", "tlb_misses"} {
			r.AddMetric(name+"."+n, strconv.FormatInt(runs[i].c.Get(n), 10))
		}
	}
	r.AddNote("paper: FlatFlash 1.5-1.6x over UnifiedMMap, 2.5-2.7x over TraditionalStack")
	return r
}

// Fig9b reproduces Figure 9b: FlatFlash's speedup over the baselines as the
// SSD-Cache grows, with SSD:DRAM fixed at 512.
func Fig9b(scale Scale) *Report {
	const (
		ssdBytes  = 64 << 20
		dramBytes = ssdBytes / 512
	)
	gc := gups.Config{TableBytes: 2 << 20, Updates: scale.pick(4000, 20000), Seed: 7}
	fractions := []float64{0.00125, 0.0025, 0.005, 0.01}

	r := &Report{
		ID:     "fig9b",
		Title:  "GUPS speedup vs SSD-Cache size (SSD:DRAM=512)",
		Header: []string{"SSD-Cache", "vs UnifiedMMap", "vs TraditionalStack"},
	}
	// Cells 0 and 1 are the baselines; the rest are FlatFlash, one per
	// SSD-Cache fraction.
	runs := fanOut(2+len(fractions), func(e env, i int) (counted[gups.Result], error) {
		cfg := core.DefaultConfig(ssdBytes, dramBytes)
		switch i {
		case 0:
			return gupsCell(e, "UnifiedMMap", cfg, gc)
		case 1:
			return gupsCell(e, "TraditionalStack", cfg, gc)
		}
		cfg.SSDCacheFraction = fractions[i-2]
		return gupsCell(e, "FlatFlash", cfg, gc)
	})
	um, ts := runs[0].res.Elapsed, runs[1].res.Elapsed
	for i, f := range fractions {
		elapsed := runs[2+i].res.Elapsed
		r.AddRow(fmt.Sprintf("%.3f%%", f*100),
			ratio(float64(um), float64(elapsed)),
			ratio(float64(ts), float64(elapsed)))
	}
	r.AddNote("paper: speedup increases with SSD-Cache size (baselines cannot use the in-SSD DRAM)")
	return r
}

// gupsCell runs the GUPS kernel on a fresh hierarchy.
//
//flatflash:lp
func gupsCell(e env, name string, cfg core.Config, gc gups.Config) (counted[gups.Result], error) {
	h, err := e.build(name, cfg)
	if err != nil {
		return counted[gups.Result]{}, err
	}
	res, err := gups.Run(h, gc)
	return counted[gups.Result]{res, h.Counters()}, err
}
