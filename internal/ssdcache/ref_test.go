package ssdcache

import (
	"bytes"
	"testing"

	"flatflash/internal/sim"
)

// refCache is the SSD-Cache as it was before writes in place, kept as the
// reference FuzzCache checks Cache against: a shared fill stores flash's
// view, and the first write into it copies the whole page (copy on Own), so
// flash's bytes are never written. Replacement is the same RRIP or LRU,
// written the long way.
type refCache struct {
	cfg   Config
	sets  [][]refEntry
	tick  uint64
	flash map[uint32][]byte // programmed pages; an absent LPN reads as zeros

	hits, misses, evictions, dirtyEvicts int64
}

type refEntry struct {
	valid, dirty, shared bool
	lpn                  uint32
	pageCnt              int
	data                 []byte
	rrpv                 uint8
	used                 uint64
}

func newRefCache(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([][]refEntry, cfg.Pages/cfg.Ways), flash: map[uint32][]byte{}}
	for i := range r.sets {
		r.sets[i] = make([]refEntry, cfg.Ways)
	}
	return r
}

func (r *refCache) find(lpn uint32) *refEntry {
	set := r.sets[int(lpn)%len(r.sets)]
	for i := range set {
		if set[i].valid && set[i].lpn == lpn {
			return &set[i]
		}
	}
	return nil
}

// page returns the bytes flash holds for lpn.
func (r *refCache) page(lpn uint32) []byte {
	if b, ok := r.flash[lpn]; ok {
		return b
	}
	return make([]byte, r.cfg.PageSize)
}

func (r *refCache) lookup(lpn uint32) *refEntry {
	e := r.find(lpn)
	if e == nil {
		r.misses++
		return nil
	}
	r.hits++
	r.tick++
	e.rrpv, e.used = 0, r.tick
	return e
}

// insert fills lpn with data — flash's own bytes if shared, else a copy —
// and returns the displaced entry, if any.
func (r *refCache) insert(lpn uint32, data []byte, dirty, shared bool) (*refEntry, refEntry, bool) {
	set := r.sets[int(lpn)%len(r.sets)]
	way := -1
	for i := range set {
		if !set[i].valid {
			way = i
			break
		}
	}
	var victim refEntry
	evicted := way == -1
	if evicted {
		way = r.victimWay(set)
		victim = set[way]
		r.evictions++
		if victim.dirty {
			r.dirtyEvicts++
		}
	}
	r.tick++
	if !shared {
		data = append([]byte(nil), data...)
	}
	set[way] = refEntry{valid: true, dirty: dirty, shared: shared, lpn: lpn, data: data, rrpv: rrpvInsert, used: r.tick}
	return &set[way], victim, evicted
}

func (r *refCache) victimWay(set []refEntry) int {
	if r.cfg.Policy == LRU {
		best := 0
		for i := range set {
			if set[i].used < set[best].used {
				best = i
			}
		}
		return best
	}
	for {
		for i := range set {
			if set[i].rrpv >= rrpvMax {
				return i
			}
		}
		for i := range set {
			set[i].rrpv++
		}
	}
}

// own gives e a private copy of its bytes.
func (r *refCache) own(e *refEntry) {
	if e.shared {
		e.data, e.shared = append([]byte(nil), e.data...), false
	}
}

func (r *refCache) write(e *refEntry, off int, b []byte) {
	r.own(e)
	copy(e.data[off:], b)
	e.dirty = true
}

// program makes data lpn's flash bytes.
func (r *refCache) program(lpn uint32, data []byte) {
	r.flash[lpn] = append([]byte(nil), data...)
}

func (r *refCache) remove(lpn uint32) (refEntry, bool) {
	e := r.find(lpn)
	if e == nil {
		return refEntry{}, false
	}
	v := *e
	*e = refEntry{}
	return v, true
}

// lockstepCacheGeometries are the (pages, ways, page size, policy)
// configurations the first program byte picks from: one set, several, a
// direct-mapped cache, LRU, and a page whose last 64 B line is partial.
var lockstepCacheGeometries = []Config{
	{Pages: 4, Ways: 4, PageSize: 512, Policy: RRIP},
	{Pages: 8, Ways: 2, PageSize: 1024, Policy: RRIP},
	{Pages: 3, Ways: 1, PageSize: 256, Policy: RRIP},
	{Pages: 4, Ways: 2, PageSize: 4096, Policy: LRU},
	{Pages: 4, Ways: 4, PageSize: 300, Policy: RRIP},
}

// Program opcodes for FuzzCache, each followed by its operand bytes.
const (
	opRead      = iota // lpn, fail: a lookup, and on a miss a shared fill
	opWrite            // lpn, shape, off, len, fill, fail
	opWriteBack        // lpn, fill, fail: a whole-page write-back (Own, or a dirty insert)
	opGC               // lpn, fail: GC relocates lpn's flash page
	opTakeDirty        // lpn
	opRemove           // lpn
	opOwnAll
	opDrop // keep
)

var cacheOpTable = [16]int{
	opRead, opRead, opRead, opRead,
	opWrite, opWrite, opWrite, opWrite, opWrite,
	opWriteBack, opGC, opGC, opTakeDirty, opRemove, opOwnAll, opDrop,
}

// FuzzCache runs one random program against Cache and refCache in lockstep.
// Flash is modeled per side: Cache's fills share the one buffer flash keeps
// for a programmed page (writable) or a zero page that every unwritten page
// shares (not writable), a successful write-back of an in-place victim
// moves that buffer, and GC moves a page's buffer unless the cache hands it
// a dirty copy. A program reads, writes at random offsets and lengths (up to
// whole pages, so past the undo log), lands whole pages, evicts with write-
// backs that succeed or fail, runs GC with relocations that succeed or
// fail, and calls TakeDirty, Remove, OwnAll and DropDirtyBeyond. After
// every step the entries' bytes and flags, the victims, the stats, and the
// bytes flash holds for every page — its buffer with the undo log of an
// in-place entry applied — must match the reference's.
func FuzzCache(f *testing.F) {
	rng := sim.NewRNG(1)
	for seed := 0; seed < 64; seed++ {
		prog := make([]byte, 64+rng.Intn(512))
		for i := range prog {
			prog[i] = byte(rng.Uint64())
		}
		prog[0] = byte(seed)
		f.Add(prog)
	}
	f.Fuzz(runCacheLockstep)
}

func runCacheLockstep(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	cfg := lockstepCacheGeometries[next()%len(lockstepCacheGeometries)]
	size := cfg.PageSize
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRefCache(cfg)
	lpns := 3 * cfg.Pages
	flash := map[uint32][]byte{} // the buffer flash keeps for each programmed page
	zero := make([]byte, size)   // every unwritten page's view
	step := 0

	// victim writes back a displaced page on both sides, programming it
	// unless fail, and checks the two victims agree.
	victim := func(gv Victim, gok bool, wv refEntry, wok bool, fail bool) {
		t.Helper()
		if gok != wok {
			t.Fatalf("step %d: evicted %v, reference %v", step, gok, wok)
		}
		if !gok {
			return
		}
		if gv.LPN != wv.lpn || gv.Dirty != wv.dirty || gv.PageCnt != wv.pageCnt || !bytes.Equal(gv.Data, wv.data) {
			t.Fatalf("step %d: victim lpn %d dirty %v, reference lpn %d dirty %v (or their bytes differ)",
				step, gv.LPN, gv.Dirty, wv.lpn, wv.dirty)
		}
		if !gv.Dirty {
			return
		}
		if !gv.InPlace() && !fail {
			// Flash keeps an owned victim's buffer as the page and releases
			// the page's old buffer to the pool.
			if old := flash[gv.LPN]; old != nil {
				got.pool.Put(old)
			}
			flash[gv.LPN] = gv.Data
		}
		got.Settle(gv, !fail)
		if !fail {
			want.program(wv.lpn, wv.data)
		}
	}
	// cached returns lpn's entry on both sides, filling it on a miss.
	cached := func(lpn uint32, fail bool) (*Entry, *refEntry) {
		t.Helper()
		ge, gok := got.Lookup(lpn)
		we := want.lookup(lpn)
		if gok != (we != nil) {
			t.Fatalf("step %d: lookup(%d) hit %v, reference %v", step, lpn, gok, we != nil)
		}
		if gok {
			return ge, we
		}
		view, own := flash[lpn]
		if !own {
			view = zero
		}
		ge, gv, gev := got.InsertShared(lpn, view, own)
		we, wv, wev := want.insert(lpn, want.page(lpn), false, true)
		victim(gv, gev, wv, wev, fail)
		return ge, we
	}
	// check compares every page's cache state and flash bytes.
	check := func(op string) {
		t.Helper()
		if got.hits != want.hits || got.misses != want.misses || got.evictions != want.evictions || got.dirtyEvicts != want.dirtyEvicts {
			t.Fatalf("step %d (%s): stats differ from the reference", step, op)
		}
		if !bytes.Equal(zero, make([]byte, size)) {
			t.Fatalf("step %d (%s): a write reached the shared zero page", step, op)
		}
		for lpn := uint32(0); lpn < uint32(lpns); lpn++ {
			ge, we := got.find(lpn), want.find(lpn)
			if (ge != nil) != (we != nil) {
				t.Fatalf("step %d (%s): lpn %d cached %v, reference %v", step, op, lpn, ge != nil, we != nil)
			}
			fl := flash[lpn]
			if fl == nil {
				fl = zero
			}
			if ge != nil {
				if ge.Dirty != we.dirty || !bytes.Equal(ge.Data, we.data) {
					t.Fatalf("step %d (%s): lpn %d dirty %v, reference %v (or the bytes differ)", step, op, lpn, ge.Dirty, we.dirty)
				}
				if err := ge.CheckUndo(); err != nil {
					t.Fatalf("step %d (%s): %v", step, op, err)
				}
				if ge.shared && &ge.Data[0] != &fl[0] {
					t.Fatalf("step %d (%s): lpn %d holds a buffer flash no longer keeps for it", step, op, lpn)
				}
				if ge.InPlace() {
					fl = ge.FlashBytes(nil)
				}
			}
			if !bytes.Equal(fl, want.page(lpn)) {
				t.Fatalf("step %d (%s): flash bytes of lpn %d differ from the reference", step, op, lpn)
			}
		}
	}

	for ; len(prog) > 0; step++ {
		op := cacheOpTable[next()%len(cacheOpTable)]
		lpn := uint32(next() % lpns)
		switch op {
		case opRead:
			cached(lpn, next()&1 == 1)
		case opWrite:
			shape, off, n := next(), 0, 0
			switch shape % 4 {
			case 0: // a few bytes, maybe across a line boundary
				off = next() * size / 256
				n = 1 + next()%16
			case 1: // a run of lines, up to past the undo log
				off = next() % size
				n = next() * (undoLines + 2) * lineSize / 256
			case 2: // the whole page
				n = size
			case 3: // nothing: a torn write of one byte
				off = next() % size
			}
			n = min(n, size-off)
			fill := byte(next())
			b := make([]byte, n)
			for i := range b {
				b[i] = fill ^ byte(i)
			}
			ge, we := cached(lpn, next()&1 == 1)
			got.Write(ge, off, b)
			want.write(we, off, b)
		case opWriteBack:
			page := bytes.Repeat([]byte{byte(next())}, size)
			fail := next()&1 == 1
			ge, gok := got.Lookup(lpn)
			we := want.lookup(lpn)
			if gok != (we != nil) {
				t.Fatalf("step %d: lookup(%d) hit %v, reference %v", step, lpn, gok, we != nil)
			}
			if gok {
				got.Own(ge)
				copy(ge.Data, page)
				ge.Dirty = true
				want.write(we, 0, page)
				break
			}
			_, gv, gev := got.Insert(lpn, page, true)
			_, wv, wev := want.insert(lpn, page, true, false)
			victim(gv, gev, wv, wev, fail)
		case opGC:
			fail := next()&1 == 1
			if _, ok := flash[lpn]; !ok || fail {
				// Nothing to relocate, or the relocation's program failed:
				// flash still holds the old page, and the entry stays dirty.
				break
			}
			if data, dirty := got.DirtyData(lpn); dirty {
				if data != nil {
					flash[lpn] = append([]byte(nil), data...)
				}
				got.Cleaned(lpn)
			}
			if we := want.find(lpn); we != nil && we.dirty {
				want.program(lpn, we.data)
				we.dirty = false
			}
		case opTakeDirty:
			data, ok := got.TakeDirty(lpn)
			we := want.find(lpn)
			if ok != (we != nil && we.dirty) || ok && !bytes.Equal(data, we.data) {
				t.Fatalf("step %d: TakeDirty(%d) = %v, reference disagrees", step, lpn, ok)
			}
			if ok {
				flash[lpn] = append([]byte(nil), data...)
				want.program(lpn, we.data)
				we.dirty = false
			}
		case opRemove:
			gv, gok := got.Remove(lpn)
			wv, wok := want.remove(lpn)
			if gok != wok || gok && (gv.Dirty != wv.dirty || !bytes.Equal(gv.Data, wv.data)) {
				t.Fatalf("step %d: Remove(%d) differs from the reference", step, lpn)
			}
		case opOwnAll:
			got.OwnAll()
			for lpn := uint32(0); lpn < uint32(lpns); lpn++ {
				if e := got.find(lpn); e != nil && e.InPlace() {
					t.Fatalf("step %d: lpn %d still in place after OwnAll", step, lpn)
				}
			}
		case opDrop:
			keep := int(lpn) % 4
			var dirty []uint32
			for l := uint32(0); l < uint32(lpns); l++ {
				if we := want.find(l); we != nil && we.dirty {
					dirty = append(dirty, l)
				}
			}
			if keep < len(dirty) {
				for _, l := range dirty[keep:] {
					want.remove(l)
				}
			}
			if g, w := got.DropDirtyBeyond(keep), max(len(dirty)-keep, 0); g != w {
				t.Fatalf("step %d: DropDirtyBeyond(%d) = %d, reference %d", step, keep, g, w)
			}
		}
		check([...]string{"read", "write", "write-back", "gc", "take-dirty", "remove", "own-all", "drop"}[op])
	}
}
