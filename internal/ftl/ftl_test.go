package ftl

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
	"testing/quick"

	"flatflash/internal/flash"
	"flatflash/internal/sim"
)

func testConfig() Config {
	fc := flash.DefaultConfig()
	fc.Blocks = 16
	fc.PagesPerBlock = 8
	fc.PageSize = 128
	fc.Channels = 2
	return Config{Flash: fc, OverprovisionBlocks: 4, GCFreeBlocksLow: 2}
}

func page(f *FTL, fill byte) []byte {
	return bytes.Repeat([]byte{fill}, f.PageSize())
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	c := testConfig()
	c.OverprovisionBlocks = 0
	if c.Validate() == nil {
		t.Error("OP=0 accepted")
	}
	c = testConfig()
	c.OverprovisionBlocks = c.Flash.Blocks
	if c.Validate() == nil {
		t.Error("OP=Blocks accepted")
	}
	c = testConfig()
	c.GCFreeBlocksLow = 0
	if c.Validate() == nil {
		t.Error("GC low-water 0 accepted")
	}
	c = testConfig()
	c.GCFreeBlocksLow = c.OverprovisionBlocks + 1
	if c.Validate() == nil {
		t.Error("GC low-water above OP accepted")
	}
	c = testConfig()
	c.Flash.PageSize = 0
	if _, err := New(c); err == nil {
		t.Error("New accepted invalid flash config")
	}
}

func TestLogicalCapacity(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if f.LogicalPages() != (16-4)*8 {
		t.Fatalf("logical pages = %d", f.LogicalPages())
	}
	if f.PageSize() != 128 {
		t.Fatalf("page size = %d", f.PageSize())
	}
}

func TestUnwrittenPageReadsZero(t *testing.T) {
	f, _ := New(testConfig())
	buf := page(f, 0xEE)
	now, err := f.ReadPage(0, 7, buf)
	if err != nil {
		t.Fatal(err)
	}
	// The mapped file spans the SSD, so even a never-written logical page
	// costs a real device read.
	if now != sim.Time(testConfig().Flash.ReadLatency) {
		t.Fatalf("unmapped read latency = %d, want one device read", now)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unmapped page must read as zeros")
		}
	}
	if f.IsMapped(7) {
		t.Fatal("page 7 should be unmapped")
	}

	// An unmapped read is charged against the alias physical page
	// lpn % TotalPages. Whatever that page holds, the read returns zeros,
	// costs one device read, and is counted under the alias page's type.
	for _, typ := range []flash.PageType{flash.PageData, flash.PageTrans} {
		f, _ := New(testConfig())
		dev := f.Device()
		alias := flash.PageAddr(7 % testConfig().Flash.TotalPages())
		start, err := dev.ProgramTyped(0, alias, page(f, 0xAB), typ)
		if err != nil {
			t.Fatal(err)
		}
		buf := page(f, 0xEE)
		done, err := f.ReadPage(start, 7, buf)
		if err != nil {
			t.Fatal(err)
		}
		if done != start.Add(testConfig().Flash.ReadLatency) {
			t.Fatalf("type %d: unmapped read took %d, want one device read", typ, done.Sub(start))
		}
		if !bytes.Equal(buf, make([]byte, len(buf))) {
			t.Fatalf("type %d: unmapped page over a programmed alias must read as zeros", typ)
		}
		dataReads, transReads, _, _ := dev.WearByType()
		if typ == flash.PageTrans && (dataReads != 0 || transReads != 1) ||
			typ == flash.PageData && (dataReads != 1 || transReads != 0) {
			t.Fatalf("type %d: counted (%d data, %d trans) reads", typ, dataReads, transReads)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f, _ := New(testConfig())
	want := page(f, 0x42)
	if _, err := f.WritePage(0, 3, want); err != nil {
		t.Fatal(err)
	}
	got := page(f, 0)
	if _, err := f.ReadPage(0, 3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip failed")
	}
	if !f.IsMapped(3) {
		t.Fatal("page 3 should be mapped")
	}
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	f, _ := New(testConfig())
	f.WritePage(0, 3, page(f, 1))
	f.WritePage(0, 3, page(f, 2))
	got := page(f, 0)
	f.ReadPage(0, 3, got)
	if got[0] != 2 {
		t.Fatal("overwrite did not take effect")
	}
	host, flashProgs := f.Writes()
	if host != 2 || flashProgs != 2 {
		t.Fatalf("writes = (%d,%d)", host, flashProgs)
	}
}

func TestTrim(t *testing.T) {
	f, _ := New(testConfig())
	f.WritePage(0, 3, page(f, 9))
	if err := f.Trim(3); err != nil {
		t.Fatal(err)
	}
	got := page(f, 0xEE)
	f.ReadPage(0, 3, got)
	for _, b := range got {
		if b != 0 {
			t.Fatal("trimmed page must read zeros")
		}
	}
	if err := f.Trim(1 << 20); err != ErrOutOfRange {
		t.Fatalf("err = %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	f, _ := New(testConfig())
	buf := page(f, 0)
	if _, err := f.ReadPage(0, uint32(f.LogicalPages()), buf); err != ErrOutOfRange {
		t.Fatalf("read err = %v", err)
	}
	if _, err := f.WritePage(0, uint32(f.LogicalPages()), buf); err != ErrOutOfRange {
		t.Fatalf("write err = %v", err)
	}
	if _, err := f.ReadPage(0, 0, make([]byte, 3)); err != flash.ErrBadPageSize {
		t.Fatalf("short read err = %v", err)
	}
	if _, err := f.WritePage(0, 0, make([]byte, 3)); err != flash.ErrBadPageSize {
		t.Fatalf("short write err = %v", err)
	}
}

// Writing far more pages than physical capacity forces GC; data must survive
// relocation, the device must keep bytes for exactly the live pages, and
// write amplification must exceed 1.
func TestGCPreservesDataUnderChurn(t *testing.T) {
	f, _ := New(testConfig())
	n := uint32(f.LogicalPages())
	rng := sim.NewRNG(123)
	shadow := make(map[uint32]byte)
	var now sim.Time
	for i := 0; i < 2000; i++ {
		lpn := uint32(rng.Uint64n(uint64(n)))
		fill := byte(rng.Uint64())
		var err error
		now, err = f.WritePage(now, lpn, page(f, fill))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		shadow[lpn] = fill
		if i%100 == 0 {
			if err := f.CheckConsistency(); err != nil {
				t.Fatalf("write %d: %v", i, err)
			}
		}
	}
	if err := f.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	buf := page(f, 0)
	for lpn, fill := range shadow {
		if _, err := f.ReadPage(now, lpn, buf); err != nil {
			t.Fatal(err)
		}
		for _, b := range buf {
			if b != fill {
				t.Fatalf("lpn %d corrupted after GC: got %d want %d", lpn, b, fill)
			}
		}
	}
	if wa := f.WriteAmplification(); wa <= 1.0 {
		t.Errorf("expected WA > 1 under churn, got %f", wa)
	}
	rs := f.Remap()
	if rs.GCRuns == 0 || rs.ErasedBlocks == 0 {
		t.Error("GC never ran despite churn")
	}
	if rs.Relocations > 0 && rs.BatchInterrupts == 0 {
		t.Error("relocations without batch interrupts")
	}
	if rs.BatchInterrupts > rs.GCRuns {
		t.Error("more interrupts than GC passes (batching broken)")
	}
}

// fakeDirty is a DirtySource whose cleaned pages drop out at once, as a
// clean SSD-Cache entry may be evicted at any time.
type fakeDirty struct {
	pages map[uint32][]byte
	taken int
}

func (d *fakeDirty) DirtyData(lpn uint32) ([]byte, bool) {
	p, ok := d.pages[lpn]
	return p, ok
}

func (d *fakeDirty) Cleaned(lpn uint32) {
	if _, ok := d.pages[lpn]; ok {
		delete(d.pages, lpn)
		d.taken++
	}
}

// GC must merge dirty SSD-Cache contents (read-modify-write, §4): after GC
// relocates a page whose newer version lives in the cache, flash holds the
// cache's version.
func TestGCMergesDirtyCachePages(t *testing.T) {
	f, _ := New(testConfig())
	dirty := &fakeDirty{pages: make(map[uint32][]byte)}
	f.SetDirtySource(dirty)

	// Write page 5 with stale data, then register a newer dirty version.
	f.WritePage(0, 5, page(f, 0xAA))
	dirty.pages[5] = page(f, 0xBB)

	// Churn other pages until GC has certainly relocated page 5.
	rng := sim.NewRNG(77)
	var now sim.Time
	for i := 0; dirty.taken == 0 && i < 5000; i++ {
		lpn := uint32(rng.Uint64n(uint64(f.LogicalPages())))
		if lpn == 5 {
			continue
		}
		now, _ = f.WritePage(now, lpn, page(f, byte(i)))
	}
	if dirty.taken == 0 {
		t.Fatal("GC never consulted the dirty source")
	}
	got := page(f, 0)
	f.ReadPage(now, 5, got)
	if got[0] != 0xBB {
		t.Fatalf("GC lost the dirty cache version: got %#x", got[0])
	}
}

// Property: under arbitrary write/trim churn the FTL never corrupts data —
// every read returns the last written value — never errors while within
// logical capacity, and keeps its invariants (bytes held for exactly the
// live pages among them) after every operation.
func TestFTLConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		ftl, _ := New(testConfig())
		rng := sim.NewRNG(seed)
		n := uint64(ftl.LogicalPages())
		shadow := make(map[uint32]uint64)
		buf := make([]byte, ftl.PageSize())
		var now sim.Time
		for op := 0; op < 800; op++ {
			lpn := uint32(rng.Uint64n(n))
			switch rng.Intn(4) {
			case 0, 1: // write a tagged page
				tag := rng.Uint64()
				binary.LittleEndian.PutUint64(buf, tag)
				var err error
				now, err = ftl.WritePage(now, lpn, buf)
				if err != nil {
					return false
				}
				shadow[lpn] = tag
			case 2: // trim
				if ftl.Trim(lpn) != nil {
					return false
				}
				delete(shadow, lpn)
			case 3: // verify
				if _, err := ftl.ReadPage(now, lpn, buf); err != nil {
					return false
				}
				got := binary.LittleEndian.Uint64(buf)
				if want, ok := shadow[lpn]; ok {
					if got != want {
						return false
					}
				} else if got != 0 {
					return false
				}
			}
			if ftl.CheckConsistency() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Wear leveling must reduce the maximum per-block erase count under a
// skewed write pattern (hot logical pages), at equal or modestly higher
// total work, versus purely greedy victim selection.
func TestWearLevelingEvensErases(t *testing.T) {
	run := func(level bool) (maxWear, total int64) {
		cfg := testConfig()
		cfg.WearLeveling = level
		f, _ := New(cfg)
		rng := sim.NewRNG(99)
		var now sim.Time
		// 90% of writes hit 4 hot pages; 10% spread over the rest.
		for i := 0; i < 6000; i++ {
			var lpn uint32
			if rng.Intn(10) != 0 {
				lpn = uint32(rng.Intn(4))
			} else {
				lpn = uint32(rng.Uint64n(uint64(f.LogicalPages())))
			}
			var err error
			now, err = f.WritePage(now, lpn, page(f, byte(i)))
			if err != nil {
				t.Fatal(err)
			}
		}
		total, maxWear, _ = f.Device().Wear()
		return maxWear, total
	}
	greedyMax, _ := run(false)
	leveledMax, _ := run(true)
	if leveledMax >= greedyMax {
		t.Errorf("wear leveling did not reduce max wear: greedy=%d leveled=%d", greedyMax, leveledMax)
	}
}

// Wear-leveled FTL must still preserve data.
func TestWearLevelingPreservesData(t *testing.T) {
	cfg := testConfig()
	cfg.WearLeveling = true
	f, _ := New(cfg)
	rng := sim.NewRNG(5)
	shadow := make(map[uint32]byte)
	var now sim.Time
	for i := 0; i < 1500; i++ {
		lpn := uint32(rng.Uint64n(uint64(f.LogicalPages())))
		fill := byte(rng.Uint64())
		var err error
		now, err = f.WritePage(now, lpn, page(f, fill))
		if err != nil {
			t.Fatal(err)
		}
		shadow[lpn] = fill
	}
	buf := page(f, 0)
	for lpn, fill := range shadow {
		f.ReadPage(now, lpn, buf)
		if buf[0] != fill {
			t.Fatalf("lpn %d corrupted under wear leveling", lpn)
		}
	}
}

// TestPickVictimMatchesBruteForce pins which block GC erases. Random write
// and trim churn runs the GC loop by hand, and before each collection
// pickVictim must agree with a brute force over every block: skip the
// active, free, bad and full blocks, cost the rest by valid pages plus
// wearWeight per erase under wear-leveling, and break ties toward the
// lowest block.
func TestPickVictimMatchesBruteForce(t *testing.T) {
	brute := func(f *FTL) (victim int, tied bool) {
		type cand struct {
			block int
			cost  int64
		}
		var cands []cand
		for b := 0; b < f.cfg.Flash.Blocks; b++ {
			if b == f.active || slices.Contains(f.freeBlocks, b) || f.bad[b] ||
				f.validCount[b] == f.cfg.Flash.PagesPerBlock {
				continue
			}
			cost := int64(f.validCount[b])
			if f.cfg.WearLeveling {
				cost += wearWeight * f.dev.BlockErases(b)
			}
			cands = append(cands, cand{b, cost})
		}
		if len(cands) == 0 {
			return -1, false
		}
		slices.SortFunc(cands, func(x, y cand) int {
			if c := cmp.Compare(x.cost, y.cost); c != 0 {
				return c
			}
			return cmp.Compare(x.block, y.block)
		})
		return cands[0].block, len(cands) > 1 && cands[1].cost == cands[0].cost
	}
	for _, level := range []bool{false, true} {
		cfg := testConfig()
		cfg.WearLeveling = level
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(17)
		n := uint64(f.LogicalPages())
		var now sim.Time
		checks, ties := 0, 0
		for i := 0; i < 4000; i++ {
			// The loop maybeGC runs, with every victim checked.
			for len(f.freeBlocks) <= f.cfg.GCFreeBlocksLow {
				want, tied := brute(f)
				got := f.pickVictim()
				if got != want {
					t.Fatalf("wear-leveling %v, op %d: pickVictim = %d, brute force = %d", level, i, got, want)
				}
				if got == -1 {
					break
				}
				checks++
				if tied {
					ties++
				}
				if now, err = f.collect(now, got); err != nil {
					t.Fatal(err)
				}
			}
			// A hot quarter of the pages takes most writes, so erase
			// counts spread apart.
			lpn := uint32(rng.Uint64n(n))
			if rng.Intn(4) != 0 {
				lpn %= uint32(n / 4)
			}
			if rng.Intn(5) == 0 {
				err = f.Trim(lpn)
			} else {
				now, err = f.WritePage(now, lpn, page(f, byte(i)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if checks == 0 || ties == 0 {
			t.Fatalf("wear-leveling %v: %d victims checked, %d of them among tied costs; the churn must reach GC and ties", level, checks, ties)
		}
	}
}

// TestCrashRebuildHoldsLiveBytes runs churn with GC, loses power, rebuilds the
// map and checks that the recovered pages are exactly the ones whose bytes
// the device still holds, in both map modes.
func TestCrashRebuildHoldsLiveBytes(t *testing.T) {
	for _, cachePages := range []int{0, 1} {
		cfg := testConfig()
		cfg.MapCachePages = cachePages
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(5)
		shadow := make([]byte, f.LogicalPages())
		var now sim.Time
		for i := 0; i < 600; i++ {
			lpn := uint32(rng.Uint64n(uint64(len(shadow))))
			if i%7 == 0 {
				if err := f.Trim(lpn); err != nil {
					t.Fatal(err)
				}
				shadow[lpn] = 0
				continue
			}
			fill := byte(rng.Uint64n(255) + 1)
			if now, err = f.WritePage(now, lpn, page(f, fill)); err != nil {
				t.Fatalf("map cache %d, write %d: %v", cachePages, i, err)
			}
			shadow[lpn] = fill
		}
		if f.Remap().GCRuns == 0 {
			t.Fatalf("map cache %d: churn never ran GC", cachePages)
		}
		f.CrashMap()
		f.RebuildL2P()
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("map cache %d: %v", cachePages, err)
		}
		buf := page(f, 0)
		for lpn, fill := range shadow {
			if _, err := f.ReadPage(now, uint32(lpn), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, page(f, fill)) {
				t.Fatalf("map cache %d: lpn %d reads %#x after rebuild, want %#x", cachePages, lpn, buf[0], fill)
			}
		}
	}
}

// BenchmarkWriteGC times host page writes at 75% logical fill: uniform
// overwrites over the filled range keep garbage collection running, so the
// per-op cost includes its share of victim selection, relocation reads and
// programs, and erases.
func BenchmarkWriteGC(b *testing.B) {
	fc := flash.DefaultConfig()
	fc.Blocks = 64
	f, err := New(Config{Flash: fc, OverprovisionBlocks: 8, GCFreeBlocksLow: 2})
	if err != nil {
		b.Fatal(err)
	}
	live := uint64(f.LogicalPages() * 3 / 4)
	data := page(f, 0x5A)
	var now sim.Time
	for lpn := uint64(0); lpn < live; lpn++ {
		if now, err = f.WritePage(now, uint32(lpn), data); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	// Warm up into GC steady state before timing.
	for i := 0; i < 4*f.LogicalPages(); i++ {
		if now, err = f.WritePage(now, uint32(rng.Uint64n(live)), data); err != nil {
			b.Fatal(err)
		}
	}
	runs := f.Remap().GCRuns
	b.SetBytes(int64(f.PageSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if now, err = f.WritePage(now, uint32(rng.Uint64n(live)), data); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if b.N >= fc.PagesPerBlock*fc.Blocks && f.Remap().GCRuns == runs {
		b.Fatal("writes never ran GC")
	}
}
