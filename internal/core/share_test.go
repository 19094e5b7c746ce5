package core

import (
	"bytes"
	"sort"
	"testing"

	"flatflash/internal/fault"
	"flatflash/internal/flash"
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

// TestSharedViewAliasInvariant walks a shared SSD-Cache entry through every
// event that could leave it viewing a stale or recycled flash buffer — its
// fill, GC relocation of its page, a dirty write-back whose program fails,
// and a crash with a drained battery — checking the alias invariant and
// every byte of the region after each, with both map modes.
func TestSharedViewAliasInvariant(t *testing.T) {
	for _, mode := range []struct {
		name     string
		mapPages int
	}{{"in-memory", 0}, {"demand", 2}} {
		t.Run(mode.name, func(t *testing.T) {
			g := newShareRig(t, mode.mapPages)
			ff := g.ff
			const pa, pb = 3, 9
			a := g.lpn(pa)

			// A shared fill: page a reaches flash, leaves the cache, and is
			// read back into it as a view of its flash page.
			g.write(pa, 0x41)
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
			view, before := e.Data, g.phys(a)
			rng := sim.NewRNG(5)
			first := g.lpn(g.pages-1) + 1
			span := uint64(ff.ftl.LogicalPages()) - uint64(first)
			page := make([]byte, 4096)
			relocs := ff.ftl.Remap().Relocations
			for n := 0; ; n++ {
				if n > 50*ff.ftl.LogicalPages() {
					t.Fatal("GC never relocated page a")
				}
				if _, err := ff.ftl.WritePage(ff.Now(), first+uint32(rng.Uint64n(span)), page); err != nil {
					t.Fatal(err)
				}
				if r := ff.ftl.Remap().Relocations; r != relocs {
					relocs = r
					if g.phys(a) != before {
						break
					}
				}
			}
			if !e.Shared() || &e.Data[0] != &view[0] || &ff.ftl.PageView(a)[0] != &view[0] {
				t.Fatal("relocation did not carry the shared view to a's new page")
			}
			g.check("gc relocation", pa)

			// A dirty write-back whose first program fails: the victim's
			// buffer stays with the cache for the retry.
			eng, err := fault.NewEngine(fault.Plan{{Kind: fault.ProgramFail, At: ff.Now(), N: 1}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetFaults(eng)
			g.write(pb, 0x42)
			g.evict(pb)
			c := ff.Counters()
			if c.Get("fault_program_failures") != 1 || c.Get("cache_writebacks") == 0 || c.Get("writeback_failures") != 0 {
				t.Fatalf("program failures %d, write-backs %d, failed write-backs %d; want 1, >0, 0",
					c.Get("fault_program_failures"), c.Get("cache_writebacks"), c.Get("writeback_failures"))
			}
			g.check("failed program", pa)

			// A crash with a drained battery: only the lowest-LPN dirty page
			// survives; the others fall back to their flash copies.
			eng, err = fault.NewEngine(fault.Plan{{Kind: fault.BatteryDrain, At: ff.Now(), N: 1}}, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff.SetFaults(eng)
			for _, p := range []int{pb, 1, 12} {
				g.write(p, 0x50+byte(p))
			}
			g.read(pa)
			dirty := ff.cach.DirtyPages()
			sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
			if len(dirty) < 2 || g.entry(a) == nil || !g.entry(a).Shared() {
				t.Fatalf("before the crash: %d dirty pages and page a shared %v; want >1 and true", len(dirty), g.entry(a) != nil)
			}
			for _, lpn := range dirty[1:] {
				p := int(lpn - g.lpn(0))
				copy(g.shadow[p*4096:(p+1)*4096], ff.ftl.PageView(lpn))
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
			g.check("crash and recover", pa)
			if e := g.entry(a); e == nil || !e.Shared() {
				t.Fatalf("page a not shared after recovery (cached %v)", e != nil)
			}
		})
	}
}

// TestWriteBackHitOwnsSharedEntry drives writeBackToCache's hit branch — a
// DRAM page landing on a page the SSD-Cache already holds — onto shared
// clean entries, one viewing a flash page and one viewing the FTL's zero
// page. The write must take the entry over, not write through the view.
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
	flashA := append([]byte(nil), ff.ftl.PageView(a)...)
	for _, p := range []int{pa, pz} {
		page := bytes.Repeat([]byte{0x70 + byte(p)}, 4096)
		ff.writeBackToCache(ff.Now(), g.lpn(p), page, 0)
		copy(g.shadow[p*4096:], page)
		e := g.entry(g.lpn(p))
		if e == nil || e.Shared() || !e.Dirty || !bytes.Equal(e.Data, page) {
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
