package ssdcache

import (
	"bytes"
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
)

func newOneSet(t testing.TB, ways int) *Cache {
	t.Helper()
	c, err := New(Config{Pages: ways, Ways: ways, PageSize: 64, Policy: RRIP})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func pageOf(b byte, size int) []byte { return bytes.Repeat([]byte{b}, size) }

// pooled returns the buffers in c's pool, top first, leaving the pool as
// it was.
func pooled(c *Cache) [][]byte {
	bufs := make([][]byte, c.pool.Len())
	for i := range bufs {
		bufs[i] = c.pool.Get()
	}
	for i := len(bufs) - 1; i >= 0; i-- {
		c.pool.Put(bufs[i])
	}
	return bufs
}

// TestSpareRecyclingKeepsData drives eviction and Remove churn through one
// set and checks that buffer recycling never corrupts resident or displaced
// page contents.
func TestSpareRecyclingKeepsData(t *testing.T) {
	c := newOneSet(t, 2)
	size := c.Config().PageSize

	c.Insert(0, pageOf(0xA0, size), false)
	c.Insert(1, pageOf(0xA1, size), true)

	// Third insert into the full set evicts; the victim's data must be the
	// displaced page's bytes, readable until the next Insert.
	_, v, evicted := c.Insert(2, pageOf(0xA2, size), false)
	if !evicted {
		t.Fatal("expected an eviction")
	}
	wantVictim := byte(0xA0)
	if v.LPN == 1 {
		wantVictim = 0xA1
	}
	for _, b := range v.Data {
		if b != wantVictim {
			t.Fatalf("victim byte = %#x, want %#x", b, wantVictim)
		}
	}
	// Residents are intact.
	if e, ok := c.Lookup(2); !ok || e.Data[0] != 0xA2 {
		t.Fatal("inserted page corrupted")
	}

	// Remove → re-Insert of the same victim data goes through the spare
	// buffer (a self-copy): contents must survive.
	v2, ok := c.Remove(2)
	if !ok {
		t.Fatal("remove failed")
	}
	e, _, _ := c.Insert(2, v2.Data, v2.Dirty)
	if e.Data[0] != 0xA2 {
		t.Fatalf("re-inserted page byte = %#x, want 0xA2", e.Data[0])
	}
	if e.Dirty {
		t.Fatal("dirty bit invented by re-insert")
	}
}

// TestVictimDataInvalidatedByNextInsert pins the documented contract: a
// Victim's buffer is recycled by the next Insert, so its bytes change then —
// callers must have copied it out beforehand.
func TestVictimDataInvalidatedByNextInsert(t *testing.T) {
	c := newOneSet(t, 1)
	size := c.Config().PageSize
	c.Insert(0, pageOf(0x11, size), false)
	_, v, evicted := c.Insert(1, pageOf(0x22, size), false)
	if !evicted || v.Data[0] != 0x11 {
		t.Fatalf("victim = %+v, want data 0x11", v)
	}
	c.Insert(2, pageOf(0x33, size), false)
	if v.Data[0] == 0x11 {
		t.Fatal("victim buffer was not recycled — spare path not taken")
	}
}

// TestInsertSharedStoresView: InsertShared stores the view itself, clean and
// shared, and the eviction it causes hands the dirty victim's buffer to the
// caller with its bytes intact: the pool gets it back only when Settle
// learns that flash did not program it.
func TestInsertSharedStoresView(t *testing.T) {
	c := newOneSet(t, 1)
	size := c.Config().PageSize
	c.Insert(0, pageOf(0x11, size), true)

	view := pageOf(0x22, size)
	e, v, evicted := c.InsertShared(1, view, false)
	if &e.Data[0] != &view[0] {
		t.Fatal("InsertShared stored a copy of the view")
	}
	if !e.Shared() || e.Dirty {
		t.Fatalf("shared fill: shared %v dirty %v, want shared and clean", e.Shared(), e.Dirty)
	}
	if !evicted || v.LPN != 0 || !v.Dirty || !bytes.Equal(v.Data, pageOf(0x11, size)) {
		t.Fatalf("victim = lpn %d dirty %v, want lpn 0 dirty with its data", v.LPN, v.Dirty)
	}
	if c.pool.Len() != 0 {
		t.Fatal("the dirty victim's buffer reached the pool before Settle")
	}
	c.Settle(v, false)
	c.Own(e)
	if &e.Data[0] != &v.Data[0] {
		t.Fatal("Own did not reuse the buffer Settle gave back")
	}
}

// TestOwnCopiesOnce: Own copies a shared entry's view into a cache buffer
// once; writes after it land in that buffer and leave the view untouched,
// and a second Own changes nothing.
func TestOwnCopiesOnce(t *testing.T) {
	c := newOneSet(t, 2)
	size := c.Config().PageSize
	view := pageOf(0x33, size)
	e, _, _ := c.InsertShared(4, view, false)
	c.Own(e)
	if e.Shared() || &e.Data[0] == &view[0] || !bytes.Equal(e.Data, view) {
		t.Fatal("Own did not take a private copy of the view")
	}
	owned := e.Data
	e.Data[0] = 0x44
	c.Own(e)
	if &e.Data[0] != &owned[0] || e.Data[0] != 0x44 {
		t.Fatal("a second Own copied again")
	}
	if !bytes.Equal(view, pageOf(0x33, size)) {
		t.Fatal("a write after Own reached the shared view")
	}
}

// TestSharedVictimsNeverFreed: a shared entry's view never joins the pool,
// whether the entry is evicted or removed, while owned buffers do and the
// pool stays within the cache's page count.
func TestSharedVictimsNeverFreed(t *testing.T) {
	c := newOneSet(t, 2)
	size := c.Config().PageSize
	views := map[*byte]bool{}
	for lpn := uint32(0); lpn < 8; lpn++ {
		view := pageOf(byte(lpn), size)
		views[&view[0]] = true
		c.InsertShared(lpn, view, false)
	}
	if v, ok := c.Remove(7); !ok || !views[&v.Data[0]] {
		t.Fatal("Remove of a shared entry did not return its view")
	}
	if c.pool.Len() != 0 {
		t.Fatalf("pool holds %d buffers after shared-only churn, want 0", c.pool.Len())
	}
	c.Insert(8, pageOf(8, size), false)
	c.Remove(8)
	c.Insert(9, pageOf(9, size), false)
	c.Insert(10, pageOf(10, size), false) // evicts 9 or 6, clean
	for _, buf := range pooled(c) {
		if views[&buf[0]] {
			t.Fatal("a shared view reached the pool")
		}
	}
	if c.pool.Len() > c.Config().Pages {
		t.Fatalf("pool grew to %d buffers, past %d pages", c.pool.Len(), c.Config().Pages)
	}
}

// TestInsertChurnZeroAllocSteadyState: once the set's buffers exist, the
// evict cycle allocates nothing per insert — a copied-in page whose dirty
// victims' buffers return to the pool (as flash's release of the page's
// old copy returns one), a shared fill that is then owned and dirtied, and
// a fill of flash's own buffer written in place, whose in-place victims
// settle their undo logs.
func TestInsertChurnZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	c := newOneSet(t, 4)
	size := c.Config().PageSize
	fill := pageOf(0x7F, size)
	// Warm: fill the set and force one eviction so a free buffer exists.
	var lpn uint32
	for ; lpn < 5; lpn++ {
		c.Insert(lpn, fill, false)
	}
	alloctest.Exact(t, 1000, 0, func() {
		if _, v, ok := c.Insert(lpn, fill, lpn%2 == 0); ok && v.Dirty {
			c.pool.Put(v.Data)
		}
		lpn++
	})
	alloctest.Exact(t, 1000, 0, func() {
		e, v, ok := c.InsertShared(lpn, fill, false)
		if ok && v.Dirty {
			c.pool.Put(v.Data)
		}
		c.Own(e)
		e.Dirty = true
		lpn++
	})
	w := writeMissRig(newOneSet(t, 4), 64)
	for i := 0; i < 128; i++ {
		w()
	}
	alloctest.Exact(t, 1000, 0, w)
}

// writeMissRig returns one SSD-Cache write miss on c, over lpns pages that
// each keep one flash buffer: a shared fill of the next page's buffer, an
// 8 B write into it, and the write-back of a dirty victim, which settles an
// in-place victim's undo log, or makes an owned victim's buffer the page's
// and returns the page's old one to the pool, as flash's release does.
func writeMissRig(c *Cache, lpns int) func() {
	size := c.Config().PageSize
	flash := make([][]byte, lpns)
	for i := range flash {
		flash[i] = pageOf(byte(i), size)
	}
	b := make([]byte, 8)
	i := 0
	return func() {
		lpn := i % lpns
		e, v, ok := c.InsertShared(uint32(lpn), flash[lpn], true)
		c.Write(e, 8*i%size, b)
		if ok && v.Dirty {
			if !v.InPlace() {
				c.pool.Put(flash[v.LPN])
				flash[v.LPN] = v.Data
			}
			c.Settle(v, true)
		}
		i++
	}
}

// BenchmarkCacheMissFill times the SSD-Cache half of a miss fill at a 4 KiB
// page: the InsertShared of flash's view that evicts a victim from a full
// set. The page itself is not copied.
func BenchmarkCacheMissFill(b *testing.B) {
	c, err := New(Config{Pages: 64, Ways: DefaultWays, PageSize: 4096, Policy: RRIP})
	if err != nil {
		b.Fatal(err)
	}
	src := pageOf(0x5A, 4096)
	var lpn uint32
	for ; lpn < 128; lpn++ {
		c.Insert(lpn, src, lpn%2 == 0)
	}
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, v, ok := c.InsertShared(lpn, src, true); ok && v.Dirty {
			c.pool.Put(v.Data)
		}
		lpn++
	}
}

// BenchmarkCacheWriteMiss times the SSD-Cache half of a write miss at a
// 4 KiB page over 1024 pages of flash buffers (4 MiB): a shared fill of
// flash's buffer that evicts a dirty victim, an 8 B write into the new
// entry, and the victim's write-back.
func BenchmarkCacheWriteMiss(b *testing.B) {
	c, err := New(Config{Pages: 64, Ways: DefaultWays, PageSize: 4096, Policy: RRIP})
	if err != nil {
		b.Fatal(err)
	}
	w := writeMissRig(c, 1024)
	for i := 0; i < 2048; i++ {
		w()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w()
	}
}

// TestVictimSelectionScansInPlace checks RRIP victim selection picks a
// distant-re-reference way rather than always way 0, and that aging
// terminates: after hitting way 0's page (RRPV -> 0), the victim must be a
// different way.
func TestVictimSelectionScansInPlace(t *testing.T) {
	c := newOneSet(t, 4)
	size := c.Config().PageSize
	for lpn := uint32(0); lpn < 4; lpn++ {
		c.Insert(lpn, pageOf(byte(lpn), size), false)
	}
	// Promote page 0 to RRPV 0; everyone else stays at insert RRPV.
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("page 0 should be resident")
	}
	_, v, evicted := c.Insert(4, pageOf(4, size), false)
	if !evicted {
		t.Fatal("expected eviction from full set")
	}
	if v.LPN == 0 {
		t.Fatal("RRIP evicted the just-hit page")
	}
}
