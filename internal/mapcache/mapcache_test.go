package mapcache

import (
	"math/rand"
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/flash"
	"flatflash/internal/sim"
)

func mustNew(t *testing.T, trans, cache int) *Cache {
	t.Helper()
	c, err := New(Config{TransPages: trans, CachePages: cache})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	if _, err := New(Config{TransPages: 0, CachePages: 1}); err == nil {
		t.Fatal("TransPages 0 accepted")
	}
	if _, err := New(Config{TransPages: 1, CachePages: 0}); err == nil {
		t.Fatal("CachePages 0 accepted")
	}
	// CachePages beyond TransPages clamps: the whole map fits.
	c := mustNew(t, 3, 8)
	if got := c.Config().CachePages; got != 3 {
		t.Fatalf("CachePages = %d, want clamped to 3", got)
	}
	if c.TransPages() != 3 {
		t.Fatalf("TransPages = %d, want 3", c.TransPages())
	}
}

// refLRU is the naive oracle: a slice ordered MRU-first plus a dirty set.
type refLRU struct {
	cap   int
	order []uint32
	dirty map[uint32]bool
}

func newRefLRU(cap int) *refLRU {
	return &refLRU{cap: cap, dirty: make(map[uint32]bool)}
}

func (r *refLRU) find(tvpn uint32) int {
	for i, v := range r.order {
		if v == tvpn {
			return i
		}
	}
	return -1
}

func (r *refLRU) touch(i int) {
	v := r.order[i]
	copy(r.order[1:i+1], r.order[:i])
	r.order[0] = v
}

func (r *refLRU) lookup(tvpn uint32) bool {
	i := r.find(tvpn)
	if i < 0 {
		return false
	}
	r.touch(i)
	return true
}

func (r *refLRU) insert(tvpn uint32) (v Victim, evicted bool) {
	if i := r.find(tvpn); i >= 0 {
		r.touch(i)
		return Victim{}, false
	}
	if len(r.order) == r.cap {
		last := r.order[len(r.order)-1]
		v = Victim{TVPN: last, Dirty: r.dirty[last]}
		evicted = true
		r.order = r.order[:len(r.order)-1]
		delete(r.dirty, last)
	}
	r.order = append([]uint32{tvpn}, r.order...)
	return v, evicted
}

func sameOrder(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLRUOracle drives the cache and a naive reference model through the
// same seeded op stream and demands identical residency, recency order,
// eviction victims, and dirty flags at every step.
func TestLRUOracle(t *testing.T) {
	const trans, cache = 32, 5
	c := mustNew(t, trans, cache)
	ref := newRefLRU(cache)
	rng := rand.New(rand.NewSource(42))
	for step := 0; step < 5000; step++ {
		tvpn := uint32(rng.Intn(trans))
		switch rng.Intn(4) {
		case 0: // lookup
			got, want := c.Lookup(tvpn), ref.lookup(tvpn)
			if got != want {
				t.Fatalf("step %d: Lookup(%d) = %v, oracle %v", step, tvpn, got, want)
			}
		case 1: // insert (after a miss, or a redundant touch)
			gotV, gotEv := c.Insert(tvpn)
			wantV, wantEv := ref.insert(tvpn)
			if gotEv != wantEv || gotV != wantV {
				t.Fatalf("step %d: Insert(%d) = %+v/%v, oracle %+v/%v",
					step, tvpn, gotV, gotEv, wantV, wantEv)
			}
		case 2: // dirty a resident page
			if c.Contains(tvpn) != (ref.find(tvpn) >= 0) {
				t.Fatalf("step %d: Contains(%d) disagrees with oracle", step, tvpn)
			}
			err := c.MarkDirty(tvpn)
			if ref.find(tvpn) >= 0 {
				if err != nil {
					t.Fatalf("step %d: MarkDirty(%d) on resident page: %v", step, tvpn, err)
				}
				ref.dirty[tvpn] = true
			} else if err != ErrNotResident {
				t.Fatalf("step %d: MarkDirty(%d) non-resident = %v, want ErrNotResident",
					step, tvpn, err)
			}
		case 3: // clean
			c.Clean(tvpn)
			if ref.find(tvpn) >= 0 {
				delete(ref.dirty, tvpn)
			}
		}
		if !sameOrder(c.LRUOrder(), ref.order) {
			t.Fatalf("step %d: LRU order %v, oracle %v", step, c.LRUOrder(), ref.order)
		}
		for _, v := range ref.order {
			if c.Dirty(v) != ref.dirty[v] {
				t.Fatalf("step %d: Dirty(%d) = %v, oracle %v", step, v, c.Dirty(v), ref.dirty[v])
			}
		}
		if err := c.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	st := c.Stats()
	if st.Hits+st.Misses == 0 || st.Evictions == 0 {
		t.Fatalf("oracle run exercised too little: %+v", st)
	}
	if mr := c.MissRatio(); mr <= 0 || mr >= 1 {
		t.Fatalf("miss ratio %v outside (0,1)", mr)
	}
}

func TestStatsCounting(t *testing.T) {
	c := mustNew(t, 8, 2)
	if c.Lookup(3) {
		t.Fatal("empty cache reported a hit")
	}
	c.NoteColdFill()
	c.Insert(3)
	if !c.Lookup(3) {
		t.Fatal("resident page reported a miss")
	}
	c.Lookup(5)
	c.NoteFetch()
	c.Insert(5)
	if err := c.MarkDirty(5); err != nil {
		t.Fatal(err)
	}
	c.Lookup(7)
	c.NoteFetch()
	if v, ev := c.Insert(7); !ev || v.TVPN != 3 || v.Dirty {
		t.Fatalf("Insert(7) evicted %+v/%v, want clean victim 3", v, ev)
	}
	c.Lookup(1)
	c.NoteFetch()
	if v, ev := c.Insert(1); !ev || v.TVPN != 5 || !v.Dirty {
		t.Fatalf("Insert(1) evicted %+v/%v, want dirty victim 5", v, ev)
	}
	want := Stats{Hits: 1, Misses: 4, Fetches: 3, ColdFills: 1, Evictions: 2, DirtyEvs: 1}
	if got := c.Stats(); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	if got := c.MissRatio(); got != 0.8 {
		t.Fatalf("miss ratio %v, want 0.8", got)
	}
	empty := mustNew(t, 2, 1)
	if empty.MissRatio() != 0 {
		t.Fatal("empty cache miss ratio nonzero")
	}
}

func TestDirtyTVPNsAscending(t *testing.T) {
	c := mustNew(t, 16, 8)
	for _, tvpn := range []uint32{9, 2, 14, 5} {
		c.Insert(tvpn)
		if err := c.MarkDirty(tvpn); err != nil {
			t.Fatal(err)
		}
	}
	c.Insert(7) // resident but clean
	got := c.DirtyTVPNs()
	want := []uint32{2, 5, 9, 14}
	if !sameOrder(got, want) {
		t.Fatalf("DirtyTVPNs = %v, want %v", got, want)
	}
	c.Clean(9)
	if got := c.DirtyTVPNs(); !sameOrder(got, []uint32{2, 5, 14}) {
		t.Fatalf("after Clean(9): %v", got)
	}
	// Cleaning a non-resident page is a no-op, not a panic.
	c.Clean(15)
}

func TestGTDAndCheckpoint(t *testing.T) {
	c := mustNew(t, 4, 2)
	for tvpn := uint32(0); tvpn < 4; tvpn++ {
		if c.GTD(tvpn) != flash.InvalidPage {
			t.Fatalf("fresh GTD[%d] != InvalidPage", tvpn)
		}
		if c.Stamp(tvpn) != 0 {
			t.Fatalf("fresh stamp[%d] != 0", tvpn)
		}
	}
	c.SetGTD(2, flash.PageAddr(77), 9)
	if c.GTD(2) != flash.PageAddr(77) || c.Stamp(2) != 9 {
		t.Fatalf("GTD(2) = %v stamp %d", c.GTD(2), c.Stamp(2))
	}
	if c.CkptSeq() != 0 {
		t.Fatal("fresh checkpoint sequence nonzero")
	}
	c.SetCkptSeq(9)
	if c.CkptSeq() != 9 {
		t.Fatalf("CkptSeq = %d, want 9", c.CkptSeq())
	}
}

// TestCrashDropsVolatileKeepsDurable models power loss: residency, dirtiness
// and recency vanish; the GTD, stamps and checkpoint sequence survive.
func TestCrashDropsVolatileKeepsDurable(t *testing.T) {
	c := mustNew(t, 8, 4)
	c.Insert(1)
	c.Insert(6)
	if err := c.MarkDirty(6); err != nil {
		t.Fatal(err)
	}
	c.SetGTD(1, flash.PageAddr(10), 3)
	c.SetCkptSeq(3)
	c.Crash()
	if c.Resident() != 0 {
		t.Fatalf("%d pages resident after crash", c.Resident())
	}
	if c.Contains(1) || c.Contains(6) || c.Dirty(6) {
		t.Fatal("volatile state survived crash")
	}
	if len(c.LRUOrder()) != 0 {
		t.Fatal("LRU order survived crash")
	}
	if c.GTD(1) != flash.PageAddr(10) || c.Stamp(1) != 3 || c.CkptSeq() != 3 {
		t.Fatal("durable GTD state lost in crash")
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	// The cache refills normally after a crash.
	c.Insert(6)
	if !c.Lookup(6) {
		t.Fatal("cache unusable after crash")
	}
}

func warmedCache(tb testing.TB) *Cache {
	c, err := New(Config{TransPages: 64, CachePages: 8})
	if err != nil {
		tb.Fatal(err)
	}
	for tvpn := uint32(0); tvpn < 8; tvpn++ {
		c.Insert(tvpn)
	}
	return c
}

// TestHitPathZeroAllocs is the budget the //flatflash:hotpath annotations
// promise: a steady-state hit (lookup + LRU touch + dirty mark) performs
// zero heap allocations. The race detector instruments allocations, so the
// budget only holds in normal builds.
func TestHitPathZeroAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	c := warmedCache(t)
	tvpn := uint32(0)
	alloctest.Exact(t, 1000, 0, func() {
		if !c.Lookup(tvpn) {
			t.Fatal("warmed page missed")
		}
		if err := c.MarkDirty(tvpn); err != nil {
			t.Fatal(err)
		}
		c.Clean(tvpn)
		tvpn = (tvpn + 1) % 8
	})
}

// BenchmarkMapCacheHit measures the steady-state resident-lookup path.
func BenchmarkMapCacheHit(b *testing.B) {
	c := warmedCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Lookup(uint32(i & 7)) {
			b.Fatal("warmed page missed")
		}
	}
	b.StopTimer()
	if st := c.Stats(); st.Misses != 0 {
		b.Fatalf("%d misses on a warmed cache", st.Misses)
	}
}
