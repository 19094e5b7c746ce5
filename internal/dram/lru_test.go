package dram

import (
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
)

func newSmall(t testing.TB, frames int) *DRAM {
	t.Helper()
	d, err := New(Config{Frames: frames, PageSize: 256, AccessLatency: DefaultAccessLatency})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLRUOrderWithPins pins frames out of the eviction order and verifies
// the intrusive list keeps exact-LRU ordering among the rest.
func TestLRUOrderWithPins(t *testing.T) {
	d := newSmall(t, 4)
	var fs []int
	for i := 0; i < 4; i++ {
		f, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	// LRU right now is fs[0]. Pin it; candidate must move to fs[1].
	if err := d.Pin(fs[0]); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.EvictCandidate(); !ok || c != fs[1] {
		t.Fatalf("candidate = %d, want %d", c, fs[1])
	}
	// Touch fs[1]; now fs[2] is coldest unpinned.
	if _, err := d.Touch(fs[1]); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.EvictCandidate(); !ok || c != fs[2] {
		t.Fatalf("candidate = %d, want %d", c, fs[2])
	}
	// Unpin fs[0]: it re-enters at MRU, so fs[2] stays coldest.
	if err := d.Unpin(fs[0]); err != nil {
		t.Fatal(err)
	}
	if c, ok := d.EvictCandidate(); !ok || c != fs[2] {
		t.Fatalf("candidate after unpin = %d, want %d", c, fs[2])
	}
}

// TestAllocReusesZeroedBuffer: the buffer retained across Release/Alloc must
// come back zeroed, never carrying the previous tenant's bytes.
func TestAllocReusesZeroedBuffer(t *testing.T) {
	d := newSmall(t, 1)
	f, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data, err := d.Data(f)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xAB
	}
	if err := d.Release(f); err != nil {
		t.Fatal(err)
	}
	f2, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	data2, err := d.Data(f2)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range data2 {
		if b != 0 {
			t.Fatalf("reused buffer byte %d = %#x, want 0", i, b)
		}
	}
}

// TestAllocOrderAndUnzeroedReuse pins the order frames are handed out in —
// released frames first, last in first out, then untouched frames lowest
// first — which every report depends on, and that AllocUnzeroed hands a
// released frame back with its bytes, for a caller that overwrites them.
func TestAllocOrderAndUnzeroedReuse(t *testing.T) {
	d := newSmall(t, 1<<20)
	if d.FreeFrames() != 1<<20 {
		t.Fatalf("free = %d, want every frame", d.FreeFrames())
	}
	alloc := func(unzeroed bool) int {
		t.Helper()
		take := d.Alloc
		if unzeroed {
			take = d.AllocUnzeroed
		}
		f, err := take()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for want := 0; want < 3; want++ {
		if f := alloc(false); f != want {
			t.Fatalf("fresh frame %d, want %d", f, want)
		}
	}
	data, _ := d.Data(1)
	data[0] = 0xAB
	d.Release(2)
	d.Release(1)
	if f := alloc(true); f != 1 {
		t.Fatalf("got frame %d, want the last released, 1", f)
	}
	if data, _ := d.Data(1); data[0] != 0xAB {
		t.Fatalf("AllocUnzeroed cleared the reused frame: byte 0 = %#x", data[0])
	}
	if f, g := alloc(false), alloc(false); f != 2 || g != 3 {
		t.Fatalf("got frames %d, %d, want released 2 then fresh 3", f, g)
	}
	if d.FreeFrames() != 1<<20-4 {
		t.Fatalf("free = %d, want %d", d.FreeFrames(), 1<<20-4)
	}
}

// TestChurnZeroAllocSteadyState: once every frame's buffer exists, the
// promotion/eviction churn loop — alloc, touch, evict, release — allocates
// nothing.
func TestChurnZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	d := newSmall(t, 8)
	// Warm: materialize every frame buffer once.
	var fs []int
	for i := 0; i < 8; i++ {
		f, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	for _, f := range fs {
		if err := d.Release(f); err != nil {
			t.Fatal(err)
		}
	}
	alloctest.Exact(t, 1000, 0, func() {
		f, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Touch(f); err != nil {
			t.Fatal(err)
		}
		c, ok := d.EvictCandidate()
		if !ok {
			t.Fatal("no candidate")
		}
		if err := d.Release(c); err != nil {
			t.Fatal(err)
		}
	})
}
