package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/kvstore"
	"flatflash/internal/sim"
	"flatflash/internal/ssdcache"
)

// Ablations quantifies the design choices DESIGN.md calls out, each against
// the full FlatFlash design on the YCSB-B thrashing workload:
//
//   - adaptive promotion (Algorithm 1) vs fixed threshold, promote-always
//     (eager paging), and promote-never (pure MMIO);
//   - the PLB vs stalling the CPU for each promotion;
//   - RRIP vs LRU replacement in the SSD-Cache;
//   - wear-aware vs greedy GC victim selection (max block wear).
func Ablations(scale Scale) []*Report {
	ops := scale.pick(8000, 24000)
	const (
		ssdBytes  = 32 << 20
		dramBytes = 128 << 10
	)
	records := uint64(dramBytes) * 8 / kvstore.RecordSize

	type variant struct {
		name   string
		mutate func(*core.Config)
	}
	variants := []variant{
		{"full design (adaptive+PLB+RRIP)", func(c *core.Config) {}},
		{"fixed threshold (=4)", func(c *core.Config) { c.Promotion = core.PromoteFixed }},
		{"promote always (eager paging)", func(c *core.Config) { c.Promotion = core.PromoteAlways }},
		{"promote never (pure MMIO)", func(c *core.Config) { c.Promotion = core.PromoteNever }},
		{"no PLB (stall on promotion)", func(c *core.Config) { c.UsePLB = false }},
		{"LRU SSD-Cache", func(c *core.Config) { c.SSDCachePolicy = ssdcache.LRU }},
	}

	perf := &Report{
		ID:     "ablation-design",
		Title:  "Design ablations on YCSB-B (WSS 8x DRAM)",
		Header: []string{"Variant", "Avg latency", "p99", "PageMovements", "vs full"},
	}
	runs := fanOut(len(variants), func(e env, i int) (counted[kvstore.Result], error) {
		cfg := core.DefaultConfig(ssdBytes, dramBytes)
		variants[i].mutate(&cfg)
		return kvCell(e, "FlatFlash", cfg, kvstore.Config{Records: records, Ops: ops, Workload: 'B', Seed: 11})
	})
	fullAvg := runs[0].res.Avg
	for i, v := range variants {
		res := runs[i].res
		perf.AddRow(v.name, us(res.Avg), us(res.P99),
			fmt.Sprintf("%d", res.PageMovements),
			ratio(float64(res.Avg), float64(fullAvg)))
	}
	perf.AddNote("vs full > 1.00x means the ablated variant is slower")

	wear := &Report{
		ID:     "ablation-wear",
		Title:  "GC victim selection: greedy vs wear-aware (skewed writes)",
		Header: []string{"Policy", "MaxBlockWear", "TotalErases", "WriteAmp"},
	}
	levels := []bool{false, true}
	wears := fanOut(len(levels), func(_ env, i int) (wearStats, error) {
		return wearRun(levels[i], scale)
	})
	for i, level := range levels {
		name := "greedy"
		if level {
			name = "wear-aware"
		}
		w := wears[i]
		wear.AddRow(name, fmt.Sprintf("%d", w.maxWear), fmt.Sprintf("%d", w.total), fmt.Sprintf("%.2f", w.writeAmp))
	}
	wear.AddNote("wear-aware GC trades a little extra relocation for even erase distribution (lifetime)")
	return []*Report{perf, wear}
}

// wearStats is one GC policy's wear after wearRun's skewed writes.
type wearStats struct {
	maxWear, total int64
	writeAmp       float64
}

// wearRun hammers a few hot pages through a small FTL and reports wear.
//
//flatflash:lp
func wearRun(level bool, scale Scale) (wearStats, error) {
	cfg := core.DefaultConfig(4<<20, 64<<10)
	f, err := cfg.BuildFTL(level)
	if err != nil {
		return wearStats{}, err
	}
	rng := sim.NewRNG(99)
	page := make([]byte, f.PageSize())
	var now sim.Time
	n := scale.pick(8000, 30000)
	for i := 0; i < n; i++ {
		var lpn uint32
		if rng.Intn(10) != 0 {
			lpn = uint32(rng.Intn(8))
		} else {
			lpn = uint32(rng.Uint64n(uint64(f.LogicalPages())))
		}
		now, err = f.WritePage(now, lpn, page)
		if err != nil {
			return wearStats{}, err
		}
	}
	total, maxWear, _ := f.Device().Wear()
	return wearStats{maxWear, total, f.WriteAmplification()}, nil
}
