package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/ftl"
	"flatflash/internal/mapcache"
)

// demandConfig enables the demand-paged translation map on a hierarchy big
// enough to hold several translation pages (32MB SSD → 8192 logical pages →
// 8 translation pages at 1024 entries each).
func demandConfig(cachePages int) Config {
	cfg := DefaultConfig(32<<20, 1<<20)
	cfg.MapCachePages = cachePages
	return cfg
}

// TestDemandModeDataEquivalence drives the full hierarchy — SSD-Cache,
// promotion, FTL — with the same seeded access stream under the in-memory
// map and the demand-paged one. Demand paging reshapes latency, never data:
// every read must come back byte-identical.
func TestDemandModeDataEquivalence(t *testing.T) {
	base, err := NewFlatFlash(DefaultConfig(32<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NewFlatFlash(demandConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	const region = 16 << 20
	rA, err := base.Mmap(region)
	if err != nil {
		t.Fatal(err)
	}
	rB, err := dp.Mmap(region)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	bufA, bufB := make([]byte, 64), make([]byte, 64)
	for step := 0; step < 4000; step++ {
		off := uint64(rng.Intn(region-64)) &^ 7
		if rng.Intn(10) < 4 {
			rng.Read(bufA)
			copy(bufB, bufA)
			if _, err := base.Write(rA.Base+off, bufA); err != nil {
				t.Fatalf("step %d: base write: %v", step, err)
			}
			if _, err := dp.Write(rB.Base+off, bufB); err != nil {
				t.Fatalf("step %d: demand write: %v", step, err)
			}
		} else {
			if _, err := base.Read(rA.Base+off, bufA); err != nil {
				t.Fatalf("step %d: base read: %v", step, err)
			}
			if _, err := dp.Read(rB.Base+off, bufB); err != nil {
				t.Fatalf("step %d: demand read: %v", step, err)
			}
			if !bytes.Equal(bufA, bufB) {
				t.Fatalf("step %d: offset %#x: demand map changed read data", step, off)
			}
		}
	}
	if err := dp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := dp.Counters()
	if c.Get("map_cache_misses") == 0 {
		t.Fatal("workload never missed the map cache; equivalence test is vacuous")
	}
	if base.Counters().Get("map_cache_misses") != 0 {
		t.Fatal("default mode exported map counters")
	}
}

// TestDemandMissRatioMonotone: exact LRU has the stack property, so the same
// deterministic workload at growing cache sizes must show a non-increasing
// map miss ratio, reaching zero misses-after-warmup when the whole map fits.
func TestDemandMissRatioMonotone(t *testing.T) {
	var prev float64 = 1.1
	for _, pages := range []int{1, 2, 4, 8} {
		ff, err := NewFlatFlash(demandConfig(pages))
		if err != nil {
			t.Fatal(err)
		}
		const region = 16 << 20
		r, err := ff.Mmap(region)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(22))
		buf := make([]byte, 64)
		for step := 0; step < 3000; step++ {
			off := uint64(rng.Intn(region - 64))
			if rng.Intn(10) < 3 {
				if _, err := ff.Write(r.Base+off, buf); err != nil {
					t.Fatal(err)
				}
			} else if _, err := ff.Read(r.Base+off, buf); err != nil {
				t.Fatal(err)
			}
		}
		c := ff.Counters()
		hits, misses := c.Get("map_cache_hits"), c.Get("map_cache_misses")
		if hits+misses == 0 {
			t.Fatalf("cache %d: no map lookups", pages)
		}
		ratio := float64(misses) / float64(hits+misses)
		if ratio > prev {
			t.Fatalf("cache %d: miss ratio %.4f rose above %.4f at the smaller size",
				pages, ratio, prev)
		}
		prev = ratio
	}
	if prev != 0 {
		// 8 cache pages hold all 8 translation pages: after the cold fills,
		// nothing can miss, and the tail of a 3000-op run drives the overall
		// ratio effectively to zero — a strictly positive value means pages
		// were evicted that never should have been.
		if prev > 0.01 {
			t.Fatalf("full-map cache still missing at ratio %.4f", prev)
		}
	}
}

// TestDemandCrashRecoveryUsesGTD: after a drain (which checkpoints the map)
// plus more traffic, a crash must recover through the GTD partial-scan path —
// no full-scan fallback, no equivalence mismatch — and persisted data must
// survive.
func TestDemandCrashRecoveryUsesGTD(t *testing.T) {
	cfg := demandConfig(2)
	cfg.SSDCacheFraction = 0.01 // tiny cache so dirty evictions reach flash
	ff, err := NewFlatFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := ff.MmapPersistent(4 << 20)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("demand map survives")
	if _, err := ff.Write(p.Base+8192+64, want); err != nil {
		t.Fatal(err)
	}
	if _, err := ff.Persist(p.Base+8192+64, len(want)); err != nil {
		t.Fatal(err)
	}
	line := make([]byte, 64)
	for vpn := uint64(0); vpn < 512; vpn++ {
		if _, err := ff.Write(p.Base+vpn*4096, line); err != nil {
			t.Fatal(err)
		}
	}
	ff.Drain() // flushes the SSD-Cache and checkpoints the translation map
	// Post-checkpoint traffic whose map updates die in controller DRAM.
	for vpn := uint64(512); vpn < 600; vpn++ {
		if _, err := ff.Write(p.Base+vpn*4096, line); err != nil {
			t.Fatal(err)
		}
		if _, err := ff.Persist(p.Base+vpn*4096, 64); err != nil {
			t.Fatal(err)
		}
	}
	ff.Crash()
	ff.Recover()

	c := ff.Counters()
	if c.Get("recovery_gtd_partial") != 1 {
		t.Fatalf("recovery_gtd_partial = %d, want 1", c.Get("recovery_gtd_partial"))
	}
	if c.Get("recovery_gtd_fallbacks") != 0 || c.Get("recovery_gtd_equiv_mismatches") != 0 {
		t.Fatalf("GTD recovery fell back or mismatched: fallbacks=%d mismatches=%d",
			c.Get("recovery_gtd_fallbacks"), c.Get("recovery_gtd_equiv_mismatches"))
	}
	if c.Get("recovery_trans_pages_read") == 0 {
		t.Fatal("GTD recovery read no translation pages")
	}
	// 32MB SSD → 8192 logical pages; a partial scan must touch far fewer.
	if scanned := c.Get("recovery_oob_pages_scanned"); scanned >= 8192 {
		t.Fatalf("recovery scanned %d pages — that is a full scan", scanned)
	}
	if c.Get("recovery_invariant_violations") != 0 {
		t.Fatal("recovery reported invariant violations")
	}
	if err := ff.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := ff.Read(p.Base+8192+64, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("persisted bytes lost across demand-mode crash/recover")
	}
}

// TestBaselineFaultReadFailureReleasesFrame: when the FTL read behind a
// baseline page fault fails, the frame the fault took must go back to the
// free list. Here the read's map miss forces a batch of translation
// write-backs while every NAND program fails, so the write-back retires
// block after block until the device reports no space.
func TestBaselineFaultReadFailureReleasesFrame(t *testing.T) {
	cfg := demandConfig(1)
	h, err := NewUnifiedMMap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := h.(*pagingHierarchy)
	// One page in each of five translation pages.
	epp := uint64(cfg.PageSize / mapcache.EntryBytes)
	r, err := h.Mmap(5 * epp * uint64(cfg.PageSize))
	if err != nil {
		t.Fatal(err)
	}
	addrOf := func(tvpn uint64) uint64 { return r.Base + tvpn*epp*uint64(cfg.PageSize) }
	buf := make([]byte, 64)
	// Dirty translation pages 0-3 in turn; each map miss evicts the previous
	// one, leaving three queued write-backs and page 3 resident and dirty.
	for tvpn := uint64(0); tvpn < 4; tvpn++ {
		if _, err := h.Write(addrOf(tvpn), buf); err != nil {
			t.Fatal(err)
		}
		if _, err := h.SyncPages(addrOf(tvpn), 1); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: 0, N: 1 << 30}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.ftl.Device().SetFaults(eng)

	free := p.dram.FreeFrames()
	if _, err := h.Read(addrOf(4), buf); !errors.Is(err, ftl.ErrNoSpace) {
		t.Fatalf("fault read err = %v, want ftl.ErrNoSpace", err)
	}
	if got := p.dram.FreeFrames(); got != free {
		t.Fatalf("free frames %d after the failed fault, want %d (frame leaked)", got, free)
	}
	tracked := 0
	for _, vpn := range p.vpnOfFrm {
		if vpn != noVPN {
			tracked++
		}
	}
	if tracked != 4 {
		t.Fatalf("%d tracked frames, want the 4 written pages", tracked)
	}
}

// TestBaselineDemandMapCounters checks the baselines report the demand-paged
// map they run: with MapCachePages > 0 a workload that misses the map shows
// map_fetches, and the default map shows no map counters at all.
func TestBaselineDemandMapCounters(t *testing.T) {
	for _, name := range []string{"UnifiedMMap", "TraditionalStack"} {
		for _, demand := range []bool{false, true} {
			cfg := DefaultConfig(32<<20, 1<<20)
			if demand {
				cfg = demandConfig(2)
			}
			h, err := New(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := h.Mmap(16 << 20)
			if err != nil {
				t.Fatal(err)
			}
			// Touch every page twice: the 1MB DRAM evicts them to flash
			// between the passes, so the second pass reads them back.
			buf := make([]byte, 64)
			for pass := 0; pass < 2; pass++ {
				for off := uint64(0); off < r.Size; off += uint64(cfg.PageSize) {
					if _, err := h.Write(r.Base+off, buf); err != nil {
						t.Fatal(err)
					}
				}
			}
			names := h.Counters().Names()
			fetches := h.Counters().Get("map_fetches")
			if demand && fetches == 0 {
				t.Errorf("%s with MapCachePages=2: map_fetches = 0; counters %v", name, names)
			}
			if !demand && slices.Contains(names, "map_cache_misses") {
				t.Errorf("%s with the in-memory map reports map counters: %v", name, names)
			}
		}
	}
}
