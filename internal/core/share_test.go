package core

import (
	"bytes"
	"sort"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/flash"
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/ssdcache"
)

// shareRig drives a FlatFlash whose SSD-Cache is one 8-way set, so a few
// page touches evict, against a shadow copy of its region. Promotion is off:
// every access goes through the SSD-Cache.
type shareRig struct {
	t      *testing.T
	ff     *FlatFlash
	base   uint64
	pages  int
	shadow []byte
}

func newShareRig(t *testing.T, mapCachePages int) *shareRig {
	t.Helper()
	cfg := DefaultConfig(16<<20, 256<<10)
	cfg.SSDCacheFraction = 0.002 // 8 pages: one set
	cfg.Promotion = PromoteNever
	cfg.MapCachePages = mapCachePages
	ff, err := NewFlatFlash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ways := ff.cach.Config().Ways; ff.cach.Config().Pages != ways {
		t.Fatalf("SSD-Cache has %d pages, want one set of %d", ff.cach.Config().Pages, ways)
	}
	const pages = 16
	r, err := ff.Mmap(pages * 4096)
	if err != nil {
		t.Fatal(err)
	}
	return &shareRig{t: t, ff: ff, base: r.Base, pages: pages, shadow: make([]byte, pages*4096)}
}

func (g *shareRig) lpn(page int) uint32 {
	return g.ff.self.as.PTEOf(g.base/4096 + uint64(page)).SSDPage
}

func (g *shareRig) write(page int, fill byte) {
	g.t.Helper()
	data := bytes.Repeat([]byte{fill}, 64)
	off := page*4096 + 64*int(fill%64)
	if _, err := g.ff.Write(g.base+uint64(off), data); err != nil {
		g.t.Fatal(err)
	}
	copy(g.shadow[off:], data)
}

// writePage writes all of page with a pattern of nonzero bytes, so that
// every line of it differs from a zero page.
func (g *shareRig) writePage(page int) {
	g.t.Helper()
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(1 + (i+page)%251)
	}
	if _, err := g.ff.Write(g.base+uint64(page*4096), data); err != nil {
		g.t.Fatal(err)
	}
	copy(g.shadow[page*4096:], data)
}

// read reads one line of page and checks it against the shadow.
func (g *shareRig) read(page int) {
	g.t.Helper()
	got := make([]byte, 64)
	if _, err := g.ff.Read(g.base+uint64(page*4096), got); err != nil {
		g.t.Fatal(err)
	}
	if want := g.shadow[page*4096 : page*4096+64]; !bytes.Equal(got, want) {
		g.t.Fatalf("page %d reads % x..., shadow has % x...", page, got[:4], want[:4])
	}
}

// check runs CheckInvariants, then reads every page whole against the
// shadow, the invariants again, and last re-reads keep so that it ends
// cached.
func (g *shareRig) check(step string, keep int) {
	g.t.Helper()
	if err := g.ff.CheckInvariants(); err != nil {
		g.t.Fatalf("%s: %v", step, err)
	}
	got := make([]byte, 4096)
	for page := 0; page < g.pages; page++ {
		if _, err := g.ff.Read(g.base+uint64(page*4096), got); err != nil {
			g.t.Fatalf("%s: %v", step, err)
		}
		if !bytes.Equal(got, g.shadow[page*4096:(page+1)*4096]) {
			g.t.Fatalf("%s: page %d differs from the shadow", step, page)
		}
	}
	g.read(keep)
	if err := g.ff.CheckInvariants(); err != nil {
		g.t.Fatalf("%s, after reads: %v", step, err)
	}
}

// entry returns lpn's SSD-Cache entry, or nil.
func (g *shareRig) entry(lpn uint32) *ssdcache.Entry {
	var found *ssdcache.Entry
	g.ff.cach.Each(func(e *ssdcache.Entry) error {
		if e.LPN == lpn {
			found = e
		}
		return nil
	})
	return found
}

// phys returns the flash page that holds lpn's bytes.
func (g *shareRig) phys(lpn uint32) flash.PageAddr {
	view := g.ff.ftl.PageView(lpn)
	dev := g.ff.ftl.Device()
	for p := 0; p < dev.Config().TotalPages(); p++ {
		if dev.Holds(flash.PageAddr(p)) && &dev.PeekShared(flash.PageAddr(p))[0] == &view[0] {
			return flash.PageAddr(p)
		}
	}
	return flash.InvalidPage
}

// evict reads the other pages, round robin, until page leaves the SSD-Cache.
func (g *shareRig) evict(page int) {
	g.t.Helper()
	for p, n := 0, 0; g.ff.cach.Contains(g.lpn(page)); p = (p + 1) % g.pages {
		if p == page {
			continue
		}
		if n++; n > 10*g.pages {
			g.t.Fatalf("page %d never left the SSD-Cache", page)
		}
		g.read(p)
	}
}

// flashBytes returns the bytes flash holds for lpn as a crash or a read of
// flash would see them: its page's buffer, with the undo log of an in-place
// SSD-Cache entry applied.
func (g *shareRig) flashBytes(lpn uint32) []byte {
	if e := g.entry(lpn); e != nil && e.InPlace() {
		return e.FlashBytes(nil)
	}
	return append([]byte(nil), g.ff.ftl.PageView(lpn)...)
}

// relocate writes logical pages outside the region, straight to the FTL,
// until GC moves lpn's flash page.
func (g *shareRig) relocate(lpn uint32) {
	g.t.Helper()
	ff := g.ff
	before := g.phys(lpn)
	rng := sim.NewRNG(5)
	first := g.lpn(g.pages-1) + 1
	span := uint64(ff.ftl.LogicalPages()) - uint64(first)
	page := make([]byte, 4096)
	relocs := ff.ftl.Remap().Relocations
	for n := 0; ; n++ {
		if n > 50*ff.ftl.LogicalPages() {
			g.t.Fatalf("GC never relocated lpn %d", lpn)
		}
		if _, err := ff.ftl.WritePage(ff.Now(), first+uint32(rng.Uint64n(span)), page); err != nil {
			g.t.Fatal(err)
		}
		if r := ff.ftl.Remap().Relocations; r != relocs {
			relocs = r
			if g.phys(lpn) != before {
				return
			}
		}
	}
}

// inPlace writes page, which must be cached as a view of its own flash
// page, and checks that the write landed in flash's buffer with the old
// bytes recoverable from the entry's undo log. It returns the entry and
// those old bytes.
func (g *shareRig) inPlace(page int, fill byte) (*ssdcache.Entry, []byte) {
	g.t.Helper()
	lpn := g.lpn(page)
	if e := g.entry(lpn); e == nil || !e.Shared() {
		g.t.Fatalf("page %d is not cached shared before its write", page)
	}
	old := g.flashBytes(lpn)
	g.write(page, fill)
	e := g.entry(lpn)
	if e == nil || !e.InPlace() || !e.Dirty || &e.Data[0] != &g.ff.ftl.PageView(lpn)[0] {
		g.t.Fatalf("the write to page %d did not land in place in its flash buffer", page)
	}
	if !bytes.Equal(e.FlashBytes(nil), old) {
		g.t.Fatalf("page %d's undo log does not restore flash's old bytes", page)
	}
	return e, old
}

// TestSharedViewAliasInvariant walks SSD-Cache entries that hold flash's
// buffer through every event that could leave them viewing a stale or
// recycled buffer, or leave flash without its old bytes: a shared fill, GC
// relocation of its page, a write in place, GC relocation of the in-place
// page, a dirty write-back whose program fails, a crash with a drained
// battery that keeps one in-place page and drops another, a promotion and a
// Drain of in-place pages, and an in-place write-back that fails outright.
// After each it checks the invariants and every byte of the region, with
// both map modes.
func TestSharedViewAliasInvariant(t *testing.T) {
	for _, mode := range []struct {
		name     string
		mapPages int
	}{{"in-memory", 0}, {"demand", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			g := newShareRig(t, mode.mapPages)
			ff := g.ff
			const pa, pb, pc, pz = 3, 9, 6, 12
			a, b := g.lpn(pa), g.lpn(pb)

			// A shared fill: page a reaches flash, leaves the cache, and is
			// read back into it as a view of its flash page. Page b reaches
			// flash too.
			g.writePage(pa)
			g.writePage(pb)
			ff.Drain()
			g.evict(pa)
			g.read(pa)
			e := g.entry(a)
			if e == nil || !e.Shared() || &e.Data[0] != &ff.ftl.PageView(a)[0] {
				t.Fatal("the miss fill did not share page a's flash buffer")
			}
			g.check("shared fill", pa)

			// GC relocation of that page, with the entry still cached: flash
			// traffic to logical pages outside the region until GC moves a.
			e = g.entry(a)
			if e == nil || !e.Shared() {
				t.Fatal("page a is not cached shared before GC")
			}
			view := e.Data
			g.relocate(a)
			if !e.Shared() || &e.Data[0] != &view[0] || &ff.ftl.PageView(a)[0] != &view[0] {
				t.Fatal("relocation did not carry the shared view to a's new page")
			}
			g.check("gc relocation", pa)

			// A write in place: the line lands in flash's buffer, and the
			// eviction in check writes it back by moving that buffer.
			g.inPlace(pa, 0x43)
			if err := ff.CheckInvariants(); err != nil {
				t.Fatalf("write in place: %v", err)
			}
			g.check("write in place", pa)
			if got := ff.Counters().Get("writeback_failures"); got != 0 {
				t.Fatalf("%d write-backs failed, want 0", got)
			}

			// GC relocation of an in-place page moves its buffer, written
			// lines and all, and the entry turns back into a clean view.
			e, _ = g.inPlace(pa, 0x44)
			view = e.Data
			g.relocate(a)
			if !e.Shared() || e.Dirty || &e.Data[0] != &view[0] || &ff.ftl.PageView(a)[0] != &view[0] {
				t.Fatal("GC did not move the in-place page's buffer and clean its entry")
			}
			if !bytes.Equal(ff.ftl.PageView(a), g.shadow[pa*4096:(pa+1)*4096]) {
				t.Fatal("GC relocation lost page a's in-place write")
			}
			g.check("gc relocation in place", pa)

			// A dirty write-back whose first program fails: the victim's
			// buffer stays with the cache for the retry. Page c was never on
			// flash, so its write took a copy of the zero page.
			eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: ff.Now(), N: 1}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetFaults(eng)
			g.write(pc, 0x42)
			g.evict(pc)
			c := ff.Counters()
			if c.Get("fault_program_failures") != 1 || c.Get("cache_writebacks") == 0 || c.Get("writeback_failures") != 0 {
				t.Fatalf("program failures %d, write-backs %d, failed write-backs %d; want 1, >0, 0",
					c.Get("fault_program_failures"), c.Get("cache_writebacks"), c.Get("writeback_failures"))
			}
			g.check("failed program", pa)

			// A crash with a drained battery: only the lowest-LPN dirty page
			// survives; the others fall back to flash's bytes. Pages a and b
			// are written in place, so a survives in place and b is dropped
			// in place; page z, never on flash, is written into a copy.
			if !ff.cach.Contains(b) {
				g.read(pb)
			}
			eng, err = fault.NewEngine(fault.Plan{{Kind: fault.BatteryDrain, At: ff.Now(), N: 1}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetFaults(eng)
			for _, p := range []int{pa, pb, pz} {
				g.write(p, 0x50+byte(p))
			}
			dirty := ff.cach.DirtyPages()
			sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
			if len(dirty) != 3 || dirty[0] != a || !g.entry(a).InPlace() || !g.entry(b).InPlace() {
				t.Fatalf("before the crash: dirty pages %v, want a and b in place and z", dirty)
			}
			survivor := g.flashBytes(a)
			for _, lpn := range dirty[1:] {
				p := int(lpn - g.lpn(0))
				copy(g.shadow[p*4096:(p+1)*4096], g.flashBytes(lpn))
			}
			ff.Crash()
			ff.Recover()
			c = ff.Counters()
			if got := c.Get("battery_lost_pages"); got != int64(len(dirty)-1) {
				t.Fatalf("battery lost %d pages, want %d", got, len(dirty)-1)
			}
			if c.Get("recovery_invariant_violations") != 0 {
				t.Fatal("recovery found invariant violations")
			}
			if e := g.entry(a); e == nil || e.InPlace() || e.Shared() || !e.Dirty {
				t.Fatal("the surviving in-place page a is not a dirty copy after the crash")
			}
			if !bytes.Equal(ff.ftl.PageView(a), survivor) {
				t.Fatal("the crash left page a's new bytes in flash")
			}
			g.check("crash and recover", pa)
			if e := g.entry(a); e == nil || !e.Shared() {
				t.Fatalf("page a not shared after recovery (cached %v)", e != nil)
			}

			// A promotion of an in-place page: the page leaves for DRAM with
			// its new bytes, and flash gets its old ones back.
			_, old := g.inPlace(pa, 0x60)
			ff.pol = promote.NewFixed(1)
			g.read(pa)
			ff.pol = nil
			if ff.cach.Contains(a) || ff.Counters().Get("promotions") != 1 {
				t.Fatal("the read did not promote page a")
			}
			if !bytes.Equal(ff.ftl.PageView(a), old) {
				t.Fatal("the promotion left page a's new bytes in flash")
			}
			g.check("promotion", pa)

			// A Drain of an in-place page programs its new bytes.
			g.evict(pb)
			g.read(pb)
			g.inPlace(pb, 0x70)
			ff.Drain()
			if e := g.entry(b); e == nil || e.InPlace() || e.Dirty {
				t.Fatal("Drain left page b in place or dirty")
			}
			if !bytes.Equal(ff.ftl.PageView(b), g.shadow[pb*4096:(pb+1)*4096]) {
				t.Fatal("Drain did not program page b's new bytes")
			}
			g.check("drain", pa)

			// An in-place write-back that fails outright: every program fails
			// until the device runs out of blocks, and flash gets page b's
			// old bytes back.
			g.evict(pb)
			g.read(pb)
			_, old = g.inPlace(pb, 0x71)
			copy(g.shadow[pb*4096:(pb+1)*4096], old)
			eng, err = fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: ff.Now(), N: 1 << 20}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetFaults(eng)
			failed := ff.Counters().Get("writeback_failures")
			g.evict(pb)
			if got := ff.Counters().Get("writeback_failures") - failed; got != 1 {
				t.Fatalf("%d write-backs failed, want 1", got)
			}
			if !bytes.Equal(ff.ftl.PageView(b), old) {
				t.Fatal("the failed write-back left page b's new bytes in flash")
			}
			g.check("failed write-back", pa)
		})
	}
}

// TestWriteBackHitOwnsSharedEntry drives writeBackToCache's hit branch — a
// DRAM page landing on a page the SSD-Cache already holds — onto an entry
// written in place in its flash page and a shared clean entry viewing the
// FTL's zero page. The write must take each entry over, not write through
// flash's buffer, and leave flash with its old bytes.
func TestWriteBackHitOwnsSharedEntry(t *testing.T) {
	g := newShareRig(t, 0)
	ff := g.ff
	const pa, pz = 2, 5
	a, z := g.lpn(pa), g.lpn(pz)
	g.write(pa, 0x61)
	ff.Drain()
	g.evict(pa)
	for _, p := range []int{pa, pa, pz, pz} {
		g.read(p) // the second read of each hits, so the other fill keeps it
	}
	for _, lpn := range []uint32{a, z} {
		if e := g.entry(lpn); e == nil || !e.Shared() {
			t.Fatalf("lpn %d is not cached shared", lpn)
		}
	}
	// Page a is written in place first: the write-back must also put
	// flash's old bytes back under the line it wrote.
	_, flashA := g.inPlace(pa, 0x62)
	for _, p := range []int{pa, pz} {
		page := bytes.Repeat([]byte{0x70 + byte(p)}, 4096)
		ff.writeBackToCache(ff.Now(), g.lpn(p), page)
		copy(g.shadow[p*4096:], page)
		e := g.entry(g.lpn(p))
		if e == nil || e.Shared() || e.InPlace() || !e.Dirty || !bytes.Equal(e.Data, page) {
			t.Fatalf("page %d: the write-back did not land in an owned dirty entry", p)
		}
	}
	if !bytes.Equal(ff.ftl.PageView(a), flashA) {
		t.Fatal("the write-back wrote through into page a's flash buffer")
	}
	if zero := ff.ftl.PageView(g.lpn(15)); !bytes.Equal(zero, make([]byte, 4096)) {
		t.Fatal("the write-back wrote through into the FTL's zero page")
	}
	g.check("write-back hit", pa)
	ff.Drain()
	g.check("drain", pa)
}
