package ssdcache

import (
	"bytes"
	"testing"

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

// TestFillBufferIsInserted: a page filled into FillBuffer is stored in that
// very buffer, and the eviction it causes hands out the displaced page as
// before — its bytes intact until the next fill or Insert, which recycles its
// buffer.
func TestFillBufferIsInserted(t *testing.T) {
	c := newOneSet(t, 1)
	size := c.Config().PageSize
	c.Insert(0, pageOf(0x11, size), true)

	buf := c.FillBuffer()
	copy(buf, pageOf(0x22, size))
	e, v, evicted := c.Insert(1, buf, false)
	if &e.Data[0] != &buf[0] {
		t.Fatal("Insert stored a copy of the fill buffer")
	}
	if !bytes.Equal(e.Data, pageOf(0x22, size)) {
		t.Fatal("filled page corrupted by Insert")
	}
	if !evicted || v.LPN != 0 || !v.Dirty || !bytes.Equal(v.Data, pageOf(0x11, size)) {
		t.Fatalf("victim = lpn %d dirty %v, want lpn 0 dirty with its data", v.LPN, v.Dirty)
	}
	if next := c.FillBuffer(); &next[0] != &v.Data[0] {
		t.Fatal("the victim's buffer is not the next fill buffer")
	}
}

// TestInsertChurnZeroAllocSteadyState: once the set's buffers and the spare
// exist, the miss-fill/evict cycle allocates nothing per insert, whether the
// page is copied in or filled into FillBuffer.
func TestInsertChurnZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	c := newOneSet(t, 4)
	size := c.Config().PageSize
	fill := pageOf(0x7F, size)
	// Warm: fill the set and force one eviction so the spare exists.
	var lpn uint32
	for ; lpn < 5; lpn++ {
		c.Insert(lpn, fill, false)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		c.Insert(lpn, fill, lpn%2 == 0)
		lpn++
	}); avg != 0 {
		t.Fatalf("steady-state insert allocates %.2f objects/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		buf := c.FillBuffer()
		copy(buf, fill)
		c.Insert(lpn, buf, false)
		lpn++
	}); avg != 0 {
		t.Fatalf("steady-state miss fill allocates %.2f objects/op, want 0", avg)
	}
}

// BenchmarkCacheMissFill times the SSD-Cache half of a miss fill at a 4 KiB
// page: FillBuffer, a page-sized write into it standing in for the flash
// read, and the Insert that evicts a victim from a full set.
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
		buf := c.FillBuffer()
		copy(buf, src)
		c.Insert(lpn, buf, false)
		lpn++
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
