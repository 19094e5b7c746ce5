package core

import (
	"testing"

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
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := h.Read(addr, buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state DRAM-hit read allocates %.1f objects/op, want 0", avg)
	}
	page := make([]byte, 4096)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := h.Read(addr, page); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("steady-state DRAM-hit page read allocates %.1f objects/op, want 0", avg)
	}
}
