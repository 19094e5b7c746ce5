package vm

import (
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
)

// refLRU is a naive slice-backed exact-LRU used as the behavioral oracle for
// the intrusive-array TLB.
type refLRU struct {
	cap  int
	vpns []uint64 // MRU first
}

func (r *refLRU) lookup(vpn uint64) bool {
	for i, v := range r.vpns {
		if v == vpn {
			r.vpns = append(r.vpns[:i], r.vpns[i+1:]...)
			r.vpns = append([]uint64{vpn}, r.vpns...)
			return true
		}
	}
	return false
}

func (r *refLRU) insert(vpn uint64) {
	if len(r.vpns) == r.cap {
		r.vpns = r.vpns[:len(r.vpns)-1]
	}
	r.vpns = append([]uint64{vpn}, r.vpns...)
}

func (r *refLRU) invalidate(vpn uint64) {
	for i, v := range r.vpns {
		if v == vpn {
			r.vpns = append(r.vpns[:i], r.vpns[i+1:]...)
			return
		}
	}
}

// TestTLBMatchesReferenceLRU drives the array TLB and a naive exact-LRU with
// the same random access/invalidate stream and requires identical hit/miss
// decisions throughout. Byte-identical reports depend on this equivalence.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const capacity = 8
	tl := newTLB(capacity, capacity*3)
	ref := &refLRU{cap: capacity}
	rng := sim.NewRNG(7)
	for i := 0; i < 20000; i++ {
		vpn := uint64(rng.Intn(capacity * 3)) // enough reuse and enough pressure
		if rng.Intn(20) == 0 {
			tl.invalidate(vpn)
			ref.invalidate(vpn)
			continue
		}
		got := tl.lookup(vpn)
		want := ref.lookup(vpn)
		if got != want {
			t.Fatalf("step %d vpn %d: tlb hit=%v, reference hit=%v", i, vpn, got, want)
		}
		if !got {
			tl.insert(vpn)
			ref.insert(vpn)
		}
	}
}

// TestTLBEvictsLRU pins the exact eviction order: filling the TLB and adding
// one more entry must evict the least recently used, not an arbitrary slot.
func TestTLBEvictsLRU(t *testing.T) {
	tl := newTLB(4, 101)
	for vpn := uint64(0); vpn < 4; vpn++ {
		tl.insert(vpn)
	}
	// Touch 0 so 1 becomes the LRU, then overflow.
	if !tl.lookup(0) {
		t.Fatal("vpn 0 should hit")
	}
	tl.insert(100)
	if tl.lookup(1) {
		t.Fatal("vpn 1 should have been evicted as LRU")
	}
	for _, vpn := range []uint64{0, 2, 3, 100} {
		if !tl.lookup(vpn) {
			t.Fatalf("vpn %d should still be resident", vpn)
		}
	}
}

// TestTLBStaleIndexMisses checks that the dense vpn -> slot index forgets a
// VPN when it leaves the TLB: a VPN evicted as LRU, or invalidated, must
// miss on its next lookup even after its old slot is reused by another VPN.
// The last mappable VPN is covered too.
func TestTLBStaleIndexMisses(t *testing.T) {
	const maxPages = 64
	last := uint64(maxPages - 1)
	tl := newTLB(2, maxPages)
	tl.insert(last)
	tl.insert(1)
	tl.insert(2) // evicts last (LRU); its slot now holds 2
	if tl.lookup(last) {
		t.Fatal("vpn maxPages-1 hit after LRU eviction")
	}
	tl.insert(last) // evicts 1
	if tl.lookup(1) {
		t.Fatal("vpn 1 hit after LRU eviction")
	}
	if !tl.lookup(last) || !tl.lookup(2) {
		t.Fatal("resident vpns missed")
	}
	tl.invalidate(last)
	if tl.lookup(last) {
		t.Fatal("vpn maxPages-1 hit after invalidation")
	}
	tl.insert(5) // reuses the invalidated slot
	if tl.lookup(last) {
		t.Fatal("vpn maxPages-1 hit after its slot was reused")
	}
	tl.invalidate(2)
	tl.invalidate(2) // invalidating an absent vpn is a no-op
	if tl.lookup(2) || !tl.lookup(5) {
		t.Fatal("invalidate(2) disturbed the wrong entry")
	}
}

// TestTranslateZeroAllocSteadyState is the TLB's allocation budget: once the
// TLB is warm, Translate (hit or miss+insert+evict) allocates nothing.
func TestTranslateZeroAllocSteadyState(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	cfg := DefaultConfig()
	cfg.TLBEntries = 16
	a, err := New(cfg, 256)
	if err != nil {
		t.Fatal(err)
	}
	for vpn := uint64(0); vpn < 256; vpn++ {
		a.Map(vpn, PTE{Loc: InSSD, SSDPage: uint32(vpn)})
	}
	// Warm: cycle every VPN through the TLB so every slot is in use.
	for vpn := uint64(0); vpn < 256; vpn++ {
		if _, _, err := a.Translate(vpn); err != nil {
			t.Fatal(err)
		}
	}
	var vpn uint64
	alloctest.Exact(t, 1000, 0, func() {
		if _, _, err := a.Translate(vpn % 256); err != nil {
			t.Fatal(err)
		}
		vpn += 3 // mix of hits and miss+evict cycles
	})
}

// BenchmarkTranslateHit times a TLB-hit translation over a working set that
// fits the default TLB but is spread across a large address space.
func BenchmarkTranslateHit(b *testing.B) {
	cfg := DefaultConfig()
	const maxPages, hot = 1 << 16, 256
	a, err := New(cfg, maxPages)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < hot; i++ {
		vpn := i * (maxPages / hot)
		a.Map(vpn, PTE{Loc: InSSD, SSDPage: uint32(vpn)})
		a.Translate(vpn) // warm
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := a.Translate(uint64(i%hot) * (maxPages / hot)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if _, misses, _ := a.Stats(); misses != hot {
		b.Fatalf("%d TLB misses, want only the %d warm-up misses", misses, hot)
	}
}
