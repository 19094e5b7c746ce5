package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/kvstore"
	"flatflash/internal/trace"
)

// CAPI quantifies §3.1's cache-coherent interconnect extension: with
// CAPI/CCIX/OpenCAPI the CPU may cache SSD-resident lines, so re-reads of
// hot lines skip the MMIO round trip entirely. Plain PCIe (the paper's
// measured prototype) leaves MMIO uncacheable.
func CAPI(scale Scale) []*Report {
	const (
		ssdBytes  = 32 << 20
		dramBytes = 128 << 10
	)
	ops := scale.pick(8000, 24000)

	rep := &Report{
		ID:     "capi",
		Title:  "Coherent host caching of MMIO (§3.1 extension): YCSB-B",
		Header: []string{"Config", "Avg latency", "p99", "HostCache hits", "MMIO reads"},
	}
	kvLines := []int{0, 1024, 8192}
	kvRuns := fanOut(len(kvLines), func(e env, i int) (counted[kvstore.Result], error) {
		cfg := core.DefaultConfig(ssdBytes, dramBytes)
		cfg.HostCacheLines = kvLines[i]
		return kvCell(e, "FlatFlash", cfg, kvstore.Config{
			Records: uint64(dramBytes) * 8 / kvstore.RecordSize,
			Ops:     ops, Workload: 'B', Seed: 11,
		})
	})
	for i, lines := range kvLines {
		name := "plain PCIe (uncacheable)"
		if lines > 0 {
			name = fmt.Sprintf("coherent, %d lines", lines)
		}
		res, c := kvRuns[i].res, kvRuns[i].c
		rep.AddRow(name, us(res.Avg), us(res.P99),
			fmt.Sprintf("%d", c.Get("hostcache_hits")),
			fmt.Sprintf("%d", c.Get("pcie_mmio_reads")))
	}
	rep.AddNote("coherent caching removes MMIO round trips for re-read lines; the paper leverages CAPI for this (§3.1)")
	rep.AddNote("on YCSB the benefit largely overlaps with promotion (hot pages move to DRAM before lines are re-read)")

	seq := &Report{
		ID:     "capi-seq",
		Title:  "Coherent host caching: sequential re-scan of a hot buffer",
		Header: []string{"Config", "Mean latency"},
	}
	seqLines := []int{0, 8192}
	gen := trace.GenConfig{
		Pattern: trace.Sequential, Ops: scale.pick(4000, 16000),
		AccessSize: 64, Extent: 64 << 10, Seed: 3,
	}
	seqRuns := fanOut(len(seqLines), func(e env, i int) (counted[trace.Result], error) {
		cfg := core.DefaultConfig(ssdBytes, dramBytes)
		cfg.HostCacheLines = seqLines[i]
		cfg.Promotion = core.PromoteNever // isolate caching from promotion
		return replayCell(e, cfg, 256<<10, gen)
	})
	for i, lines := range seqLines {
		name := "plain PCIe"
		if lines > 0 {
			name = "coherent"
		}
		seq.AddRow(name, us(seqRuns[i].res.Hist.Mean()))
	}
	return []*Report{rep, seq}
}

// replayCell replays a generated trace over a fresh FlatFlash's first
// regionBytes.
//
//flatflash:lp
func replayCell(e env, cfg core.Config, regionBytes uint64, gen trace.GenConfig) (counted[trace.Result], error) {
	h, err := e.build("FlatFlash", cfg)
	if err != nil {
		return counted[trace.Result]{}, err
	}
	region, err := h.Mmap(regionBytes)
	if err != nil {
		return counted[trace.Result]{}, err
	}
	tr, err := trace.Generate(gen)
	if err != nil {
		return counted[trace.Result]{}, err
	}
	res, err := trace.Replay(h, region, tr)
	return counted[trace.Result]{res, h.Counters()}, err
}
