package ssdcache

import (
	"bytes"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

func testConfig() Config {
	return Config{Pages: 32, Ways: 4, PageSize: 64, Policy: RRIP}
}

func pg(fill byte) []byte { return bytes.Repeat([]byte{fill}, 64) }

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Pages: 32, Ways: 4, PageSize: 0},
		{Pages: 32, Ways: 0, PageSize: 64},
		{Pages: 3, Ways: 4, PageSize: 64},
		{Pages: 30, Ways: 4, PageSize: 64},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted", i)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c, _ := New(testConfig())
	if _, ok := c.Lookup(5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(5, pg(0xAA), false)
	e, ok := c.Lookup(5)
	if !ok || e.LPN != 5 || e.Data[0] != 0xAA {
		t.Fatal("lookup after insert failed")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d,%d)", hits, misses)
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %f", c.HitRatio())
	}
}

func TestInsertCopiesData(t *testing.T) {
	c, _ := New(testConfig())
	data := pg(1)
	c.Insert(9, data, false)
	data[0] = 99
	e, _ := c.Lookup(9)
	if e.Data[0] != 1 {
		t.Fatal("cache aliased caller buffer")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	c, _ := New(testConfig())
	c.Insert(1, pg(0), false)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	c.Insert(1, pg(0), false)
}

func TestBadSizePanics(t *testing.T) {
	c, _ := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("bad size did not panic")
		}
	}()
	c.Insert(1, []byte{1}, false)
}

func TestEvictionOnFullSet(t *testing.T) {
	c, _ := New(testConfig()) // 8 sets, 4 ways
	// Fill set 0 (lpns ≡ 0 mod 8).
	for i := 0; i < 4; i++ {
		_, _, ev := c.Insert(uint32(i*8), pg(byte(i)), i == 2)
		if ev {
			t.Fatal("eviction before set full")
		}
	}
	_, v, ev := c.Insert(32, pg(9), false)
	if !ev {
		t.Fatal("no eviction from full set")
	}
	if v.LPN%8 != 0 {
		t.Fatalf("victim from wrong set: %d", v.LPN)
	}
	if c.Contains(v.LPN) {
		t.Fatal("victim still present")
	}
	_, _, evictions, _ := c.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d", evictions)
	}
}

// RRIP protects re-referenced pages: entries that were hit (RRPV=0) survive
// eviction pressure from single-use insertions.
func TestRRIPProtectsReusedPages(t *testing.T) {
	cfg := testConfig()
	c, _ := New(cfg)
	// Hot page in set 0.
	c.Insert(0, pg(0xAB), false)
	c.Lookup(0) // RRPV -> 0
	// Stream 20 single-use pages through set 0.
	for i := 1; i <= 20; i++ {
		c.Insert(uint32(i*8), pg(byte(i)), false)
		if !c.Contains(0) {
			t.Fatalf("hot page evicted by streaming insert %d", i)
		}
		c.Lookup(0) // keep it hot
	}
}

func TestLRUPolicyEvictsOldest(t *testing.T) {
	cfg := testConfig()
	cfg.Policy = LRU
	c, _ := New(cfg)
	for i := 0; i < 4; i++ {
		c.Insert(uint32(i*8), pg(byte(i)), false)
	}
	// Touch all but lpn 8 so 8 is LRU.
	c.Lookup(0)
	c.Lookup(16)
	c.Lookup(24)
	_, v, ev := c.Insert(32, pg(9), false)
	if !ev || v.LPN != 8 {
		t.Fatalf("LRU victim = %v (ev=%v), want lpn 8", v.LPN, ev)
	}
}

func TestTouchIncrementsPageCnt(t *testing.T) {
	c, _ := New(testConfig())
	e, _, _ := c.Insert(3, pg(0), false)
	if e.PageCnt != 0 {
		t.Fatal("fresh entry must start at 0")
	}
	if c.Touch(e) != 1 || c.Touch(e) != 2 {
		t.Fatal("Touch not incrementing")
	}
}

func TestRemove(t *testing.T) {
	c, _ := New(testConfig())
	c.Insert(3, pg(7), true)
	v, ok := c.Remove(3)
	if !ok || v.LPN != 3 || !v.Dirty || v.Data[0] != 7 {
		t.Fatalf("remove = %+v ok=%v", v, ok)
	}
	if c.Contains(3) {
		t.Fatal("still present after remove")
	}
	if _, ok := c.Remove(3); ok {
		t.Fatal("double remove succeeded")
	}
}

func TestTakeDirty(t *testing.T) {
	c, _ := New(testConfig())
	e, _, _ := c.Insert(4, pg(0xDD), true)
	data, ok := c.TakeDirty(4)
	if !ok || data[0] != 0xDD {
		t.Fatal("TakeDirty failed")
	}
	// The data is the entry's own buffer, not a copy.
	if &data[0] != &e.Data[0] {
		t.Fatal("TakeDirty returned a copy instead of the entry's buffer")
	}
	// Now clean: second take fails, entry still cached.
	if _, ok := c.TakeDirty(4); ok {
		t.Fatal("TakeDirty returned clean page")
	}
	if !c.Contains(4) {
		t.Fatal("TakeDirty removed the entry")
	}
	if _, ok := c.TakeDirty(99); ok {
		t.Fatal("TakeDirty hit on absent page")
	}
}

// DirtyData is a lookup without side effects; the entry stays dirty until
// Cleaned, the split GC relies on to keep a page dirty when its relocation
// program fails.
func TestDirtyDataThenCleaned(t *testing.T) {
	c, _ := New(testConfig())
	e, _, _ := c.Insert(4, pg(0xDD), true)
	for i := 0; i < 2; i++ {
		data, ok := c.DirtyData(4)
		if !ok || &data[0] != &e.Data[0] {
			t.Fatal("DirtyData did not return the entry's own buffer")
		}
	}
	if !e.Dirty {
		t.Fatal("DirtyData cleaned the entry")
	}
	c.Cleaned(4)
	if e.Dirty || !c.Contains(4) {
		t.Fatalf("after Cleaned: dirty=%v cached=%v, want a clean cached entry", e.Dirty, c.Contains(4))
	}
	if _, ok := c.DirtyData(4); ok {
		t.Fatal("DirtyData returned a clean page")
	}
	c.Cleaned(99) // absent: no-op
	if _, ok := c.DirtyData(99); ok {
		t.Fatal("DirtyData hit on absent page")
	}
}

func TestDirtyPages(t *testing.T) {
	c, _ := New(testConfig())
	c.Insert(1, pg(0), true)
	c.Insert(2, pg(0), false)
	c.Insert(3, pg(0), true)
	d := c.DirtyPages()
	if len(d) != 2 {
		t.Fatalf("dirty pages = %v", d)
	}
}

func TestSizeFor(t *testing.T) {
	// 0.125% of 2GB / 4KB pages = 655.36 -> rounded up to ways multiple.
	n := SizeFor(2<<30, 0.00125, 4096, 8)
	if n < 655 || n%8 != 0 {
		t.Fatalf("SizeFor = %d", n)
	}
	// Tiny SSD: clamp to at least one set.
	if n := SizeFor(1024, 0.00125, 4096, 8); n != 8 {
		t.Fatalf("clamped SizeFor = %d", n)
	}
}

// Property: the cache never holds duplicates, never exceeds capacity, and a
// lookup after insert always returns the inserted data until eviction, for
// both policies.
func TestCacheInvariantProperty(t *testing.T) {
	f := func(seed uint64, lru bool) bool {
		cfg := testConfig()
		if lru {
			cfg.Policy = LRU
		}
		c, _ := New(cfg)
		rng := sim.NewRNG(seed)
		shadow := make(map[uint32]byte) // lpn -> fill currently cached
		for op := 0; op < 2000; op++ {
			lpn := uint32(rng.Intn(64))
			if e, ok := c.Lookup(lpn); ok {
				if _, in := shadow[lpn]; !in {
					return false // cache has a page the shadow says evicted
				}
				if e.Data[0] != shadow[lpn] {
					return false
				}
				continue
			}
			if _, in := shadow[lpn]; in {
				return false // shadow says cached but lookup missed
			}
			fill := byte(rng.Uint64())
			_, v, ev := c.Insert(lpn, pg(fill), false)
			shadow[lpn] = fill
			if ev {
				delete(shadow, v.LPN)
			}
			if len(shadow) > cfg.Pages {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLookupHit times an SSD-Cache hit at a 4 KiB page: the set scan,
// the RRIP hit update and the hit count, cycling over every page of a full
// cache.
func BenchmarkLookupHit(b *testing.B) {
	const pages = 64
	c, err := New(Config{Pages: pages, Ways: DefaultWays, PageSize: 4096, Policy: RRIP})
	if err != nil {
		b.Fatal(err)
	}
	src := pageOf(0x5A, 4096)
	for lpn := uint32(0); lpn < pages; lpn++ {
		c.Insert(lpn, src, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Lookup(uint32(i % pages)); !ok {
			b.Fatalf("page %d missed in a full cache", i%pages)
		}
	}
}
