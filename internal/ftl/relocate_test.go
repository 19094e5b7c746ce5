package ftl

import (
	"bytes"
	"errors"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/flash"
	"flatflash/internal/sim"
)

// churnResult is what TestGCChurnUnderFaults pins: GC relocation stats plus
// the device's wear and per-type traffic totals.
type churnResult struct {
	remap  RemapStats
	wear   [3]int64 // Wear(): total erases, max block erases, programs
	byType [4]int64 // WearByType(): data reads, trans reads, data progs, trans progs
}

// TestGCChurnUnderFaults drives GC-heavy overwrites in both map modes while
// injected program and erase failures retire blocks. The FTL must keep its
// invariants after every write and return the last data written to every
// page, and the relocation, wear and traffic totals must stay exactly the
// figures below: moving a victim page's buffer instead of copying it changes
// host work only, never what the simulated device did.
func TestGCChurnUnderFaults(t *testing.T) {
	want := map[int]churnResult{
		0: {
			remap:  RemapStats{Relocations: 715, BatchInterrupts: 262, GCRuns: 267, ErasedBlocks: 266, BadBlocks: 4},
			wear:   [3]int64{266, 24, 2215},
			byType: [4]int64{715, 0, 2215, 0},
		},
		2: {
			remap:  RemapStats{Relocations: 851, TransRelocations: 35, BatchInterrupts: 287, GCRuns: 291, ErasedBlocks: 290, BadBlocks: 4},
			wear:   [3]int64{290, 27, 2404},
			byType: [4]int64{851, 35, 2351, 53},
		},
	}
	for _, cachePages := range []int{0, 2} {
		cfg := testConfig()
		cfg.MapCachePages = cachePages
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan := fault.Plan{
			{Kind: fault.ProgramFail, At: sim.Time(3 * sim.Millisecond), N: 1},
			{Kind: fault.ProgramFail, At: sim.Time(9 * sim.Millisecond), N: 1},
			{Kind: fault.ProgramFail, At: sim.Time(15 * sim.Millisecond), N: 1},
			{Kind: fault.EraseFail, At: sim.Time(6 * sim.Millisecond), N: 1},
		}
		eng, err := fault.NewEngine(plan, 1)
		if err != nil {
			t.Fatal(err)
		}
		f.Device().SetFaults(eng)

		const live = 48
		shadow := make([]byte, live)
		rng := sim.NewRNG(uint64(11 + cachePages))
		var now sim.Time
		for op := 0; op < 1500; op++ {
			lpn := uint32(rng.Uint64n(live))
			fill := byte(rng.Uint64()) | 1
			if now, err = f.WritePage(now, lpn, page(f, fill)); err != nil {
				t.Fatalf("map cache %d op %d: write lpn %d: %v", cachePages, op, lpn, err)
			}
			shadow[lpn] = fill
			if err := f.CheckConsistency(); err != nil {
				t.Fatalf("map cache %d op %d: %v", cachePages, op, err)
			}
		}
		dev := f.Device()
		var got churnResult
		got.remap = f.Remap()
		got.wear[0], got.wear[1], got.wear[2] = dev.Wear()
		got.byType[0], got.byType[1], got.byType[2], got.byType[3] = dev.WearByType()
		t.Logf("map cache %d: %+v", cachePages, got)
		if got.remap.Relocations == 0 || got.remap.BadBlocks != 4 {
			t.Fatalf("map cache %d: churn exercised too little: %+v", cachePages, got.remap)
		}
		if got != want[cachePages] {
			t.Errorf("map cache %d: got %+v,\nwant %+v", cachePages, got, want[cachePages])
		}

		buf := page(f, 0)
		for lpn, fill := range shadow {
			if fill == 0 {
				continue
			}
			if now, err = f.ReadPage(now, uint32(lpn), buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf, page(f, fill)) {
				t.Fatalf("map cache %d: lpn %d reads %#x, want %#x", cachePages, lpn, buf[0], fill)
			}
		}
	}
}

// TestGCKeepsDirtyDataWhenRelocationFails is the read-modify-write GC's
// failure rule: the SSD-Cache copy of a page turns clean only after GC has
// programmed it. Injected program failures retire block after block until a
// relocation finds no free slot (ErrNoSpace). If the dirty copy were cleaned
// before that program, the cache could drop it while flash still holds the
// older copy, and the newest data would be gone. Whatever write fails, every
// page's newest data must still be dirty in the source or readable from
// flash.
func TestGCKeepsDirtyDataWhenRelocationFails(t *testing.T) {
	lostRaces := 0
	for seed := uint64(1); seed <= 40; seed++ {
		f, err := New(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var plan fault.Plan
		for at := 3 * sim.Millisecond; at <= 300*sim.Millisecond; at += 3 * sim.Millisecond {
			plan = append(plan, fault.Fault{Kind: fault.ProgramFail, At: sim.Time(at), N: 1})
		}
		eng, err := fault.NewEngine(plan, seed)
		if err != nil {
			t.Fatal(err)
		}
		f.Device().SetFaults(eng)
		dirty := &pendingDirty{fakeDirty: fakeDirty{pages: make(map[uint32][]byte)}}
		f.SetDirtySource(dirty)

		n := uint64(f.LogicalPages())
		newest := make(map[uint32]byte)
		rng := sim.NewRNG(seed)
		var now sim.Time
		for op := 0; ; op++ {
			lpn := uint32(rng.Uint64n(n))
			fill := byte(op) | 1
			if rng.Intn(2) == 0 {
				// A store lands in the SSD-Cache: newer than flash, dirty.
				if f.IsMapped(lpn) {
					dirty.pages[lpn] = page(f, fill)
					newest[lpn] = fill
				}
				continue
			}
			done, err := f.WritePage(now, lpn, page(f, fill))
			if err != nil {
				if !errors.Is(err, ErrNoSpace) {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
				if dirty.pending {
					lostRaces++ // the failed program was a dirty page's relocation
				}
				break
			}
			now = done
			// The write evicted the page's cached copy, if it had one.
			delete(dirty.pages, lpn)
			newest[lpn] = fill
		}
		if err := f.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		buf := page(f, 0)
		for lpn, fill := range newest {
			got := byte(0)
			if d, ok := dirty.pages[lpn]; ok {
				got = d[0]
			} else {
				if _, err := f.ReadPage(now, lpn, buf); err != nil {
					t.Fatal(err)
				}
				got = buf[0]
			}
			if got != fill {
				t.Fatalf("seed %d: lpn %d holds %#x, newest write was %#x", seed, lpn, got, fill)
			}
		}
	}
	if lostRaces == 0 {
		t.Fatal("no relocation of a dirty page failed: the test exercises nothing")
	}
}

// pendingDirty notes whether GC took a page's dirty data and has not yet
// reported it persisted.
type pendingDirty struct {
	fakeDirty
	pending bool
}

func (d *pendingDirty) DirtyData(lpn uint32) ([]byte, bool) {
	p, ok := d.fakeDirty.DirtyData(lpn)
	d.pending = d.pending || ok
	return p, ok
}

func (d *pendingDirty) Cleaned(lpn uint32) {
	d.fakeDirty.Cleaned(lpn)
	d.pending = false
}

// A valid page whose bytes are gone breaks valid ⊆ held. GC must refuse to
// relocate it rather than program the erased pattern in its place.
func TestCollectRejectsValidPageWithoutBytes(t *testing.T) {
	f, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	for lpn := uint32(0); lpn < uint32(testConfig().Flash.PagesPerBlock); lpn++ {
		if now, err = f.WritePage(now, lpn, page(f, byte(lpn)+1)); err != nil {
			t.Fatal(err)
		}
	}
	victim := f.Device().BlockOf(f.l2p.get(3))
	f.Device().Release(f.l2p.get(3))
	if _, err := f.collect(now, victim); !errors.Is(err, flash.ErrNoData) {
		t.Fatalf("collect over a valid page without bytes: err = %v, want ErrNoData", err)
	}
}

// BenchmarkGCCollect times one garbage-collection pass over a victim block
// with most of its pages valid: victim selection, the relocation reads and
// programs (each valid page's buffer moves to its new page) and the erase.
// The device is full to its logical capacity, and each op first overwrites
// one random page, which makes the one page of garbage the pass reclaims, so
// the victims stay about as full as the overprovisioning allows.
func BenchmarkGCCollect(b *testing.B) {
	fc := flash.DefaultConfig()
	fc.Blocks = 64
	f, err := New(Config{Flash: fc, OverprovisionBlocks: 8, GCFreeBlocksLow: 2})
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(f.LogicalPages())
	data := page(f, 0x5A)
	var now sim.Time
	for lpn := uint64(0); lpn < n; lpn++ {
		if now, err = f.WritePage(now, uint32(lpn), data); err != nil {
			b.Fatal(err)
		}
	}
	rng := sim.NewRNG(1)
	op := func() {
		if now, err = f.WritePage(now, uint32(rng.Uint64n(n)), data); err != nil {
			b.Fatal(err)
		}
		victim := f.pickVictim()
		if victim == -1 {
			b.Fatal("no GC victim")
		}
		if now, err = f.collect(now, victim); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up until garbage is spread evenly over the device.
	for i := 0; i < 4*f.LogicalPages(); i++ {
		op()
	}
	moved := f.Remap().Relocations
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	b.ReportMetric(float64(f.Remap().Relocations-moved)/float64(b.N), "relocs/op")
}

// TestRewritePageMovesBuffer drives two FTLs through the same churn over a
// hot half of the logical pages. One writes each page's new bytes into
// its own flash buffer from ReadPageShared and programs them with a
// WriteBack of nil data; the other copies them in with WritePage. Their
// completion times, counters and bytes must agree, the rewritten page must
// keep the very buffer that was written, and the garbage collection inside
// the writes moves those buffers along. The move refuses an unmapped page,
// and an unmapped page's view is not its own.
func TestRewritePageMovesBuffer(t *testing.T) {
	got, _ := New(testConfig())
	want, _ := New(testConfig())
	if view, own, _, err := got.ReadPageShared(0, 3); err != nil || own || !bytes.Equal(view, page(got, 0)) {
		t.Fatalf("unmapped page: own %v, err %v; want the zero page, not own", own, err)
	}
	want.ReadPageShared(0, 3)
	if ok, _, err := got.WriteBack(0, 3, nil); ok || !errors.Is(err, flash.ErrNoData) {
		t.Fatalf("WriteBack of an unmapped page = %v, %v; want ErrNoData", ok, err)
	}
	rng := sim.NewRNG(3)
	now := sim.Time(0)
	hot := got.LogicalPages() / 2
	for i := 0; i < 40*got.LogicalPages(); i++ {
		lpn := uint32(rng.Intn(hot))
		if !got.IsMapped(lpn) {
			gd, gerr := got.WritePage(now, lpn, page(got, byte(i)))
			wd, werr := want.WritePage(now, lpn, page(want, byte(i)))
			if gerr != nil || werr != nil || gd != wd {
				t.Fatalf("write %d: %v at %d, reference %v at %d", i, gerr, gd, werr, wd)
			}
			now = gd
			continue
		}
		view, own, gd, gerr := got.ReadPageShared(now, lpn)
		wview, _, wd, werr := want.ReadPageShared(now, lpn)
		if gerr != nil || werr != nil || gd != wd || !own {
			t.Fatalf("read %d: own %v, %v at %d, reference %v at %d", i, own, gerr, gd, werr, wd)
		}
		now = gd
		next := append([]byte(nil), wview...)
		next[i%len(next)] = byte(i)
		copy(view, next)
		ok, gd, gerr := got.WriteBack(now, lpn, nil)
		wd, werr = want.WritePage(now, lpn, next)
		if !ok || gerr != nil || werr != nil || gd != wd {
			t.Fatalf("write %d: programmed %v, %v at %d, reference %v at %d", i, ok, gerr, gd, werr, wd)
		}
		if cur := got.PageView(lpn); &cur[0] != &view[0] || !bytes.Equal(cur, want.PageView(lpn)) {
			t.Fatalf("write %d: lpn %d does not hold the written buffer with the reference's bytes", i, lpn)
		}
		now = gd
	}
	if got.Remap() != want.Remap() || got.Remap().Relocations == 0 {
		t.Fatalf("remap stats %+v, reference %+v; want equal, with relocations", got.Remap(), want.Remap())
	}
	gh, gp := got.Writes()
	wh, wp := want.Writes()
	if gh != wh || gp != wp || got.Device().Reads() != want.Device().Reads() {
		t.Fatal("write or read counters differ from the reference")
	}
	if err := got.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
