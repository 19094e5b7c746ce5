package core

import (
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
)

// warmDRAMHit builds a FlatFlash and promotes one page into DRAM, returning
// the hierarchy and an address whose reads are steady-state DRAM hits.
func warmDRAMHit(tb testing.TB) (*FlatFlash, uint64) {
	tb.Helper()
	h, err := NewFlatFlash(testConfig())
	if err != nil {
		tb.Fatal(err)
	}
	region, err := h.Mmap(1 << 20)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 64)
	// Hammer one page until adaptive promotion pulls it into DRAM, then
	// idle long enough for the in-flight promotion to complete.
	for i := 0; i < 64; i++ {
		if _, err := h.Read(region.Base, buf); err != nil {
			tb.Fatal(err)
		}
	}
	h.Advance(sim.Micros(1000))
	// One post-promotion read must now be a DRAM hit.
	if _, err := h.Read(region.Base, buf); err != nil {
		tb.Fatal(err)
	}
	if got := h.Counters().Get("dram_reads"); got == 0 {
		tb.Fatal("warmup did not promote the page into DRAM")
	}
	return h, region.Base
}

// BenchmarkAccessDRAMHit is the steady-state hot path: a 64 B read of a
// DRAM-resident page with no promotion in flight — one cache-line access.
func BenchmarkAccessDRAMHit(b *testing.B) {
	h, addr := warmDRAMHit(b)
	buf := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessDRAMHitPage is a whole 4 KiB read of a DRAM-resident page:
// 64 per-line DRAM hits, each with its own translation, LRU touch, copy and
// clock advance.
func BenchmarkAccessDRAMHitPage(b *testing.B) {
	h, addr := warmDRAMHit(b)
	buf := make([]byte, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(addr, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessSSDCacheHit measures the MMIO path hitting the SSD-Cache:
// PromoteNever keeps the page on the SSD, and the warmup read fills the
// cache line, so every iteration is a set-associative cache hit.
func BenchmarkAccessSSDCacheHit(b *testing.B) {
	cfg := testConfig()
	cfg.Promotion = PromoteNever
	h, err := NewFlatFlash(cfg)
	if err != nil {
		b.Fatal(err)
	}
	region, err := h.Mmap(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := h.Read(region.Base, buf); err != nil {
		b.Fatal(err)
	}
	if h.Counters().Get("ssdcache_hits") == 0 {
		// Second read of the same line must hit the fill from the first.
		if _, err := h.Read(region.Base, buf); err != nil {
			b.Fatal(err)
		}
		if h.Counters().Get("ssdcache_hits") == 0 {
			b.Fatal("warmup did not produce an SSD-Cache hit")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(region.Base, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// warmSSDCacheMiss builds a FlatFlash whose 64 B accesses all miss the
// SSD-Cache: PromoteNever keeps pages on the SSD and access(i) touches page
// i%256 of a region already on flash, 16 times the cache. One warm lap runs
// first, so the buffer pool and undo logs are in their steady state, and
// for write misses as many more as the device has physical pages. A read
// miss shares the page's flash buffer; a write miss then writes that buffer
// in place, saving the line in a pooled undo log, and evicts a dirty
// in-place victim, whose buffer flash moves to a new page.
func warmSSDCacheMiss(tb testing.TB, write bool) (h *FlatFlash, access func(i int)) {
	tb.Helper()
	cfg := testConfig()
	cfg.Promotion = PromoteNever
	h, err := NewFlatFlash(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	const pages = 256
	region, err := h.Mmap(pages * 4096)
	if err != nil {
		tb.Fatal(err)
	}
	buf := make([]byte, 64)
	access = func(i int) {
		addr := region.Base + uint64(i%pages)*4096
		var err error
		if write {
			_, err = h.Write(addr, buf)
		} else {
			_, err = h.Read(addr, buf)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < pages; i++ {
		if _, err := h.Write(region.Base+uint64(i)*4096, buf); err != nil {
			tb.Fatal(err)
		}
	}
	h.Drain()
	for i := 0; i < 2*pages; i++ {
		access(i)
	}
	if write {
		// Each write miss writes a victim back at the log's frontier. The
		// frontier's first program of a physical page can grow flash's page
		// records or add an FTL map chunk; one more write miss per physical
		// page carries it past every page of the device.
		for i := 0; i < h.ftl.Config().Flash.TotalPages(); i++ {
			access(i)
		}
	}
	return h, access
}

// BenchmarkAccessSSDCacheMiss measures the MMIO path missing the SSD-Cache
// (see warmSSDCacheMiss): a read miss, and a write miss that evicts a dirty
// victim.
func BenchmarkAccessSSDCacheMiss(b *testing.B) {
	for _, bc := range []struct {
		name  string
		write bool
	}{{"read", false}, {"write-dirty-evict", true}} {
		b.Run(bc.name, func(b *testing.B) {
			h, access := warmSSDCacheMiss(b, bc.write)
			misses := h.Counters().Get("ssdcache_misses")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				access(i)
			}
			b.StopTimer()
			if got := h.Counters().Get("ssdcache_misses") - misses; got != int64(b.N) {
				b.Fatalf("%d of %d iterations missed the SSD-Cache", got, b.N)
			}
		})
	}
}

// BenchmarkAccessPLBRedirect measures reads of a page whose promotion is in
// flight: PromoteAlways starts the promotion on first touch and an enormous
// PromotionLatency keeps it pending, so every iteration takes the PLB
// redirect-to-DRAM path.
func BenchmarkAccessPLBRedirect(b *testing.B) {
	cfg := testConfig()
	cfg.Promotion = PromoteAlways
	cfg.PLB.PromotionLatency = sim.Micros(1e12) // never completes in-bench
	h, err := NewFlatFlash(cfg)
	if err != nil {
		b.Fatal(err)
	}
	region, err := h.Mmap(1 << 20)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 64)
	// First touch starts the promotion; the write sets the line's Copied-CL
	// bit so subsequent reads are redirected to host DRAM (Figure 4).
	if _, err := h.Read(region.Base, buf); err != nil {
		b.Fatal(err)
	}
	if _, err := h.Write(region.Base, buf); err != nil {
		b.Fatal(err)
	}
	if h.plb.Pending() == 0 {
		b.Fatal("warmup did not leave a promotion in flight")
	}
	before := h.Counters().Get("plb_redirects")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Read(region.Base, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if h.Counters().Get("plb_redirects")-before < int64(b.N) {
		b.Fatal("iterations were not PLB redirects")
	}
}

// TestSteadyStateDRAMHitZeroAllocs is the access path's allocation budget:
// a steady-state DRAM-hit read performs zero heap allocations.
// The race detector instruments allocations, so the budget only holds in
// normal builds.
func TestSteadyStateDRAMHitZeroAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	h, addr := warmDRAMHit(t)
	buf := make([]byte, 64)
	alloctest.Exact(t, 1000, 0, func() {
		if _, err := h.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	})
	page := make([]byte, 4096)
	alloctest.Exact(t, 1000, 0, func() {
		if _, err := h.Read(addr, page); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSteadyStateSSDCacheMissZeroAllocs: a steady-state SSD-Cache miss
// allocates nothing, whether a read that shares flash's buffer or a write
// that writes it in place behind a pooled undo log and moves a dirty
// victim's buffer to a new flash page: 1,000 misses make 0 allocations.
func TestSteadyStateSSDCacheMissZeroAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	for _, write := range []bool{false, true} {
		h, access := warmSSDCacheMiss(t, write)
		misses := h.Counters().Get("ssdcache_misses")
		i := 0
		alloctest.Exact(t, 1000, 0, func() {
			access(i)
			i++
		})
		if got := h.Counters().Get("ssdcache_misses") - misses; got != int64(i) {
			t.Fatalf("write=%v: %d of %d accesses missed", write, got, i)
		}
	}
}
