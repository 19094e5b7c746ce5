package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/stats"
	"flatflash/internal/trace"
)

// mapExpSeed keeps both demand-paged-map experiments on one deterministic
// workload stream, so their reports are byte-identical run to run.
const mapExpSeed = 7

// MapCacheSweep measures the demand-paged translation map as the cached
// mapping table grows: the same seeded zipf workload replays against
// FlatFlash at each cache size, and the report tracks the map miss ratio
// (monotone non-increasing with size — exact LRU has the stack property),
// translation-page flash traffic, and mean access latency.
func MapCacheSweep(scale Scale) *Report {
	r := &Report{
		ID:     "mapsweep",
		Title:  "demand-paged translation map: map-cache size sweep",
		Header: []string{"cache_pages", "miss_ratio", "fetches", "writebacks", "trans_programs", "mean_lat"},
	}
	sizes := []int{1, 2, 4, 8}
	runs := fanOut(len(sizes), func(e env, i int) (counted[trace.Result], error) {
		return mapCacheRun(e, scale, sizes[i], "zipf")
	})
	for i, pages := range sizes {
		c := runs[i].c
		r.AddRow(
			fmt.Sprintf("%d", pages),
			fmt.Sprintf("%.3f", missRatio(c)),
			fmt.Sprintf("%d", c.Get("map_fetches")),
			fmt.Sprintf("%d", c.Get("map_dirty_evictions")),
			fmt.Sprintf("%d", c.Get("flash_trans_programs")),
			us(runs[i].res.Hist.Mean()),
		)
	}
	r.AddNote("expectation: miss ratio falls monotonically with cache size (LRU inclusion)")
	return r
}

// MapMissAmp contrasts map-miss amplification across access patterns at one
// small cache size. Each translation page covers a contiguous kilo-page run
// of the address space, so a sequential scan amortizes one map fill across
// every access sharing that run, while zipf traffic spread over the whole
// region keeps re-fetching translation pages the small cache just evicted —
// each data access drags a translation-page read behind it.
func MapMissAmp(scale Scale) *Report {
	r := &Report{
		ID:     "mapamp",
		Title:  "demand-paged translation map: zipf-vs-scan miss amplification",
		Header: []string{"pattern", "miss_ratio", "trans_reads", "reads_per_op", "mean_lat"},
	}
	const cachePages = 2
	patterns := []trace.Pattern{"zipf", "seq"}
	runs := fanOut(len(patterns), func(e env, i int) (counted[trace.Result], error) {
		return mapCacheRun(e, scale, cachePages, patterns[i])
	})
	for i, pattern := range patterns {
		res, c := runs[i].res, runs[i].c
		transReads := c.Get("flash_trans_reads")
		perOp := 0.0
		if res.Ops > 0 {
			perOp = float64(transReads) / float64(res.Ops)
		}
		r.AddRow(
			string(pattern),
			fmt.Sprintf("%.3f", missRatio(c)),
			fmt.Sprintf("%d", transReads),
			fmt.Sprintf("%.3f", perOp),
			us(res.Hist.Mean()),
		)
	}
	r.AddNote("the scan's spatial locality amortizes map fills; wide zipf traffic pays a trans read per op")
	return r
}

// mapCacheRun replays the shared seeded workload against a FlatFlash whose
// translation map keeps cachePages translation pages resident.
//
//flatflash:lp
func mapCacheRun(e env, scale Scale, cachePages int, pattern trace.Pattern) (counted[trace.Result], error) {
	cfg := core.DefaultConfig(64<<20, 2<<20)
	cfg.MapCachePages = cachePages
	regionBytes := cfg.SSDBytes / 2
	return replayCell(e, cfg, regionBytes, trace.GenConfig{
		Pattern:    pattern,
		Ops:        scale.pick(4000, 20000),
		AccessSize: 64,
		Extent:     regionBytes,
		WriteFrac:  0.2,
		Seed:       mapExpSeed,
	})
}

// missRatio derives the cached-mapping-table miss ratio from the counters.
func missRatio(c *stats.Counters) float64 {
	hits, misses := c.Get("map_cache_hits"), c.Get("map_cache_misses")
	if hits+misses == 0 {
		return 0
	}
	return float64(misses) / float64(hits+misses)
}
