package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

// lineChunk's pieces must cover every byte exactly once, never span a cache
// line or a page, and visit addresses in order.
func TestChunkerProperty(t *testing.T) {
	f := func(addrRaw uint32, nRaw uint16) bool {
		const pageSize, lineSize = 4096, 64
		addr := uint64(addrRaw)
		n := int(nRaw)%1000 + 1
		covered := 0
		for prevEnd := addr; covered < n; {
			vpn, off, size := lineChunk(prevEnd, n-covered, pageSize, lineSize)
			start := vpn*pageSize + uint64(off)
			if start != prevEnd {
				t.Fatalf("gap at %d", start)
			}
			if size <= 0 {
				t.Fatalf("empty chunk at %d", start)
			}
			if off/lineSize != (off+size-1)/lineSize {
				t.Fatal("chunk spans cache lines")
			}
			if off+size > pageSize {
				t.Fatal("chunk spans pages")
			}
			covered += size
			prevEnd = start + uint64(size)
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Drain must flush every dirty page to flash so data survives even a
// no-battery crash.
func TestDrainFlushesEverything(t *testing.T) {
	cfg := testConfig()
	cfg.BatteryBacked = false // harshest setting: cache contents die on crash
	ff, _ := NewFlatFlash(cfg)
	r, _ := ff.Mmap(256 << 10)
	// Mix of cold writes (dirty in SSD-Cache) and hot writes (promoted).
	for i := 0; i < 32; i++ {
		addr := r.Base + uint64(i)*4096
		ff.Write(addr, []byte{byte(i + 1)})
		if i < 4 { // make a few pages hot enough to promote
			buf := make([]byte, 1)
			for j := 0; j < 20; j++ {
				ff.Read(addr, buf)
			}
		}
	}
	ff.Advance(sim.Micros(100))
	ff.Drain()
	ff.Crash()
	ff.Recover()
	for i := 0; i < 32; i++ {
		got := make([]byte, 1)
		ff.Read(r.Base+uint64(i)*4096, got)
		if got[0] != byte(i+1) {
			t.Fatalf("page %d lost after Drain+Crash: %d", i, got[0])
		}
	}
}

func TestBaselineDrain(t *testing.T) {
	um, _ := NewUnifiedMMap(testConfig())
	r, _ := um.Mmap(64 << 10)
	um.Write(r.Base, []byte("dirty page"))
	um.Drain()
	um.Crash()
	um.Recover()
	got := make([]byte, 10)
	um.Read(r.Base, got)
	if !bytes.Equal(got, []byte("dirty page")) {
		t.Fatal("baseline Drain lost data")
	}
}

// When the PLB is exhausted or DRAM has no evictable frame, promotions are
// skipped gracefully (counted, no stall, no corruption). A skipped
// promotion puts the page it removed from the SSD-Cache back, and its
// re-insert takes the removed buffer back off the top of the buffer pool
// that the cache shares with flash: every page must read back the distinct
// bytes written to it.
func TestPromotionSkippedWhenPLBFull(t *testing.T) {
	cfg := testConfig()
	cfg.PLB.Entries = 1
	cfg.PLB.PromotionLatency = sim.Micros(10000) // promotions never finish
	cfg.Promotion = PromoteAlways
	ff, _ := NewFlatFlash(cfg)
	r, _ := ff.Mmap(1 << 20)
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 8) }
	for i := 0; i < 20; i++ {
		if _, err := ff.Write(r.Base+uint64(i)*4096, want(i)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 8)
	for i := 0; i < 20; i++ {
		if _, err := ff.Read(r.Base+uint64(i)*4096, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want(i)) {
			t.Fatalf("page %d reads %x, want %x", i, buf, want(i))
		}
	}
	c := ff.Counters()
	if c.Get("promotions") != 1 {
		t.Fatalf("promotions = %d, want exactly the one PLB slot", c.Get("promotions"))
	}
	if c.Get("promotions_skipped") == 0 {
		t.Fatal("no skipped promotions counted")
	}
}

// With DRAM of a single frame pinned by an in-flight promotion, a second
// promotion must be skipped rather than deadlock.
func TestPromotionSkippedWhenDRAMPinned(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBytes = uint64(cfg.PageSize) // exactly one frame
	cfg.PLB.PromotionLatency = sim.Micros(10000)
	cfg.Promotion = PromoteAlways
	ff, _ := NewFlatFlash(cfg)
	r, _ := ff.Mmap(1 << 20)
	buf := make([]byte, 8)
	for i := 0; i < 10; i++ {
		ff.Read(r.Base+uint64(i)*4096, buf)
	}
	c := ff.Counters()
	if c.Get("promotions") != 1 || c.Get("promotions_skipped") == 0 {
		t.Fatalf("promotions=%d skipped=%d", c.Get("promotions"), c.Get("promotions_skipped"))
	}
}

// SyncPages must pipeline: syncing N contiguous dirty pages should cost far
// less than N serial device round trips on the baseline.
func TestSyncPagesPipelines(t *testing.T) {
	cfg := testConfig()
	um, _ := NewUnifiedMMap(cfg)
	r, _ := um.Mmap(256 << 10)
	const n = 8
	page := make([]byte, cfg.PageSize)
	for i := 0; i < n; i++ {
		um.Write(r.Base+uint64(i*cfg.PageSize), page)
	}
	lat, err := um.SyncPages(r.Base, n)
	if err != nil {
		t.Fatal(err)
	}
	serial := sim.Duration(n) * (cfg.FlashProgramLatency + cfg.StackOverhead)
	if lat >= serial {
		t.Fatalf("SyncPages %v not pipelined (serial bound %v)", lat, serial)
	}
	// But it must still wait for real device completions: at least one
	// program plus the software stack.
	if lat < cfg.FlashProgramLatency {
		t.Fatalf("SyncPages %v impossibly fast", lat)
	}
}

// Persist on a baseline amplifies to page granularity: persisting 8 bytes
// costs at least one full durable page write.
func TestBaselinePersistAmplifies(t *testing.T) {
	ts, _ := NewTraditionalStack(testConfig())
	r, _ := ts.MmapPersistent(64 << 10)
	ts.Write(r.Base+100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	lat, err := ts.Persist(r.Base+100, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if lat < cfg.FlashProgramLatency {
		t.Fatalf("baseline 8-byte persist took only %v; block interface should cost a page program", lat)
	}
	if ts.Counters().Get("sync_page_writes") == 0 {
		t.Fatal("no page write recorded")
	}
}

// A persist spanning two pages in a pmem region flushes both.
func TestPersistSpansPages(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	p, _ := ff.MmapPersistent(64 << 10)
	data := make([]byte, 200)
	addr := p.Base + 4096 - 100 // straddles a page boundary
	ff.Write(addr, data)
	if _, err := ff.Persist(addr, len(data)); err != nil {
		t.Fatalf("cross-page persist: %v", err)
	}
}

// Crashing twice and recovering twice must be idempotent.
func TestCrashIdempotent(t *testing.T) {
	for _, mk := range []func() Hierarchy{
		func() Hierarchy { h, _ := NewFlatFlash(testConfig()); return h },
		func() Hierarchy { h, _ := NewUnifiedMMap(testConfig()); return h },
	} {
		h := mk()
		r, _ := h.Mmap(4096)
		h.Write(r.Base, []byte{1})
		h.Crash()
		h.Crash() // no-op
		h.Recover()
		h.Recover() // no-op
		if _, err := h.Read(r.Base, make([]byte, 1)); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
	}
}

// The virtual clock is monotone across every operation type.
func TestClockMonotoneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ff, _ := NewFlatFlash(testConfig())
		r, _ := ff.Mmap(128 << 10)
		p, _ := ff.MmapPersistent(64 << 10)
		rng := sim.NewRNG(seed)
		prev := ff.Now()
		buf := make([]byte, 64)
		for i := 0; i < 200; i++ {
			switch rng.Intn(5) {
			case 0:
				ff.Read(r.Base+rng.Uint64n(r.Size-64), buf)
			case 1:
				ff.Write(r.Base+rng.Uint64n(r.Size-64), buf)
			case 2:
				ff.Write(p.Base+rng.Uint64n(p.Size-64), buf)
				ff.Persist(p.Base, 64)
			case 3:
				ff.SyncPages(r.Base, 1)
			case 4:
				ff.Advance(sim.Duration(rng.Intn(50)) * sim.Microsecond)
			}
			if now := ff.Now(); now < prev {
				return false
			} else {
				prev = now
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
