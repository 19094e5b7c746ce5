// Package mapcache implements the demand-paged translation map the FTL uses
// when its L2P mapping no longer fits host-resident memory (DFTL-style; see
// the FMMU pipelining notes in PAPERS.md). The map is sliced into
// translation pages — EntriesPerPage L2P entries each — that live in flash
// as a distinct page type. A bounded cached mapping table keeps the hot
// translation pages resident with exact intrusive LRU replacement, and a
// global translation directory (GTD) records where each translation page's
// current copy sits on flash so recovery can reload the map without a full
// OOB scan.
//
// The package is pure bookkeeping and policy: which translation pages are
// resident, which are dirty, what to evict, and where persisted copies live.
// The FTL owns the flash I/O (fetches, write-backs, GC relocation) and the
// authoritative L2P contents; mapcache decides when that I/O must happen and
// what it costs.
package mapcache

import (
	"errors"
	"fmt"

	"flatflash/internal/flash"
)

// EntryBytes is the serialized size of one L2P entry inside a translation
// page: a 32-bit physical page address, little-endian.
const EntryBytes = 4

// ErrNotResident is returned when an operation requires a cached
// translation page that is not resident.
var ErrNotResident = errors.New("mapcache: translation page not resident")

// Config parameterizes the cached mapping table.
type Config struct {
	// TransPages is the number of translation pages the map is sliced into
	// (ceil(logical pages / entries per translation page)).
	TransPages int
	// CachePages bounds how many translation pages may be resident at once.
	CachePages int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.TransPages <= 0 {
		return fmt.Errorf("mapcache: TransPages %d", c.TransPages)
	}
	if c.CachePages <= 0 {
		return fmt.Errorf("mapcache: CachePages %d", c.CachePages)
	}
	return nil
}

// Stats counts cached-mapping-table activity.
type Stats struct {
	Hits      int64 // lookups served by a resident translation page
	Misses    int64 // lookups that had to fetch or cold-fill
	Fetches   int64 // translation pages read from flash on a miss
	ColdFills int64 // misses on never-persisted pages (no flash read needed)
	Evictions int64 // resident pages displaced by LRU replacement
	DirtyEvs  int64 // evictions whose victim carried unpersisted updates
}

// Victim describes a translation page displaced by Insert.
type Victim struct {
	TVPN  uint32 // virtual translation-page number
	Dirty bool   // carried updates not yet persisted to flash
}

// Cache is the bounded cached mapping table plus the GTD. Residency is
// tracked per translation page in fixed slot arrays with an intrusive exact
// LRU (the PR 4 idiom: prev/next index arrays, head = MRU, tail = LRU), so
// the hit path is allocation-free.
type Cache struct {
	cfg Config

	// Per-slot state; slot count == cfg.CachePages, slots fill once and are
	// then only recycled by eviction.
	tvpn  []uint32
	dirty []bool
	used  int

	// Intrusive LRU over occupied slots.
	prev, next []int32
	head, tail int32

	// slotOf[tvpn] is the slot holding resident page tvpn, -1 if none: one
	// dense entry per translation page, so residency is an index, not a hash.
	slotOf []int32

	// gtd[tvpn] is the flash location of the page's current persisted copy
	// (InvalidPage if never persisted); stamp[tvpn] is the map sequence
	// number at which that copy was serialized. Both model metadata that
	// survives power loss: the location/stamp are recoverable from the
	// translation pages' own OOB areas, and ckptSeq from the checkpoint's
	// GTD root record.
	gtd     []flash.PageAddr
	stamp   []int64
	ckptSeq int64

	stats Stats
}

// New builds an empty cache: nothing resident, nothing persisted.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.CachePages > cfg.TransPages {
		cfg.CachePages = cfg.TransPages
	}
	c := &Cache{
		cfg:    cfg,
		tvpn:   make([]uint32, cfg.CachePages),
		dirty:  make([]bool, cfg.CachePages),
		prev:   make([]int32, cfg.CachePages),
		next:   make([]int32, cfg.CachePages),
		head:   -1,
		tail:   -1,
		slotOf: make([]int32, cfg.TransPages),
		gtd:    make([]flash.PageAddr, cfg.TransPages),
		stamp:  make([]int64, cfg.TransPages),
	}
	for i := range c.gtd {
		c.gtd[i] = flash.InvalidPage
		c.slotOf[i] = -1
	}
	return c, nil
}

// Config returns the cache configuration (CachePages clamped to TransPages).
func (c *Cache) Config() Config { return c.cfg }

// TransPages returns how many translation pages the map is sliced into.
func (c *Cache) TransPages() int { return c.cfg.TransPages }

//flatflash:hotpath
func (c *Cache) detach(s int32) {
	p, n := c.prev[s], c.next[s]
	if p >= 0 {
		c.next[p] = n
	} else {
		c.head = n
	}
	if n >= 0 {
		c.prev[n] = p
	} else {
		c.tail = p
	}
}

//flatflash:hotpath
func (c *Cache) pushFront(s int32) {
	c.prev[s] = -1
	c.next[s] = c.head
	if c.head >= 0 {
		c.prev[c.head] = s
	} else {
		c.tail = s
	}
	c.head = s
}

// Lookup reports whether translation page tvpn is resident, touching it to
// MRU and counting a hit when it is, a miss otherwise. The caller resolves a
// miss with a flash fetch (or cold fill) followed by Insert.
//
//flatflash:hotpath
func (c *Cache) Lookup(tvpn uint32) bool {
	s := c.slotOf[tvpn]
	if s < 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	if s != c.head {
		c.detach(s)
		c.pushFront(s)
	}
	return true
}

// Contains reports residency without touching LRU order or stats.
//
//flatflash:hotpath
func (c *Cache) Contains(tvpn uint32) bool {
	return c.slotOf[tvpn] >= 0
}

// MarkDirty flags resident page tvpn as carrying unpersisted updates.
//
//flatflash:hotpath
func (c *Cache) MarkDirty(tvpn uint32) error {
	s := c.slotOf[tvpn]
	if s < 0 {
		return ErrNotResident
	}
	c.dirty[s] = true
	return nil
}

// Dirty reports whether resident page tvpn carries unpersisted updates.
//
//flatflash:hotpath
func (c *Cache) Dirty(tvpn uint32) bool {
	s := c.slotOf[tvpn]
	return s >= 0 && c.dirty[s]
}

// NoteFetch counts a translation-page read from flash resolving a miss.
func (c *Cache) NoteFetch() { c.stats.Fetches++ }

// NoteColdFill counts a miss on a never-persisted translation page, which
// materializes empty without flash I/O.
func (c *Cache) NoteColdFill() { c.stats.ColdFills++ }

// Insert makes tvpn resident at MRU (clean), evicting the exact-LRU victim
// when the table is full. It reports the victim so the caller can schedule
// a dirty write-back. Inserting an already-resident page just touches it.
func (c *Cache) Insert(tvpn uint32) (v Victim, evicted bool) {
	if s := c.slotOf[tvpn]; s >= 0 {
		if s != c.head {
			c.detach(s)
			c.pushFront(s)
		}
		return Victim{}, false
	}
	var s int32
	if c.used < c.cfg.CachePages {
		s = int32(c.used)
		c.used++
	} else {
		s = c.tail
		v = Victim{TVPN: c.tvpn[s], Dirty: c.dirty[s]}
		evicted = true
		c.stats.Evictions++
		if v.Dirty {
			c.stats.DirtyEvs++
		}
		c.detach(s)
		c.slotOf[c.tvpn[s]] = -1
	}
	c.tvpn[s] = tvpn
	c.dirty[s] = false
	c.slotOf[tvpn] = s
	c.pushFront(s)
	return v, evicted
}

// Clean clears tvpn's dirty flag after its contents were persisted. A
// non-resident tvpn is a no-op (write-backs run after eviction).
func (c *Cache) Clean(tvpn uint32) {
	if s := c.slotOf[tvpn]; s >= 0 {
		c.dirty[s] = false
	}
}

// DirtyTVPNs returns every resident dirty translation page in ascending
// tvpn order (deterministic flush order for checkpoints).
func (c *Cache) DirtyTVPNs() []uint32 {
	var out []uint32
	for s := 0; s < c.used; s++ {
		if c.dirty[s] {
			out = append(out, c.tvpn[s])
		}
	}
	// Slot order follows insertion history, not tvpn order; sort without
	// pulling in package sort's interface allocations.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Resident returns the number of resident translation pages.
func (c *Cache) Resident() int { return c.used }

// LRUOrder returns the resident tvpns from MRU to LRU (test/oracle surface).
func (c *Cache) LRUOrder() []uint32 {
	out := make([]uint32, 0, c.used)
	for s := c.head; s >= 0; s = c.next[s] {
		out = append(out, c.tvpn[s])
	}
	return out
}

// GTD returns the flash location of tvpn's persisted copy (InvalidPage if
// never persisted).
//
//flatflash:hotpath
func (c *Cache) GTD(tvpn uint32) flash.PageAddr { return c.gtd[tvpn] }

// Stamp returns the map sequence number of tvpn's persisted copy.
func (c *Cache) Stamp(tvpn uint32) int64 { return c.stamp[tvpn] }

// SetGTD records that tvpn's current copy was serialized at sequence seq and
// programmed at addr.
func (c *Cache) SetGTD(tvpn uint32, addr flash.PageAddr, seq int64) {
	c.gtd[tvpn] = addr
	c.stamp[tvpn] = seq
}

// CkptSeq returns the map sequence number of the last checkpoint (0 before
// the first): every map mutation after it is covered by the partial OOB
// scan recovery runs over blocks programmed since.
func (c *Cache) CkptSeq() int64 { return c.ckptSeq }

// SetCkptSeq records a completed checkpoint at sequence seq.
func (c *Cache) SetCkptSeq(seq int64) { c.ckptSeq = seq }

// Crash drops the volatile state — residency, dirtiness, LRU order — while
// keeping the GTD, per-page stamps, and checkpoint sequence, which model
// flash-resident metadata (each is recoverable from translation-page OOB
// areas and the checkpoint's GTD root record).
func (c *Cache) Crash() {
	for s := 0; s < c.used; s++ {
		c.slotOf[c.tvpn[s]] = -1
		c.dirty[s] = false
	}
	c.used = 0
	c.head, c.tail = -1, -1
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// MissRatio returns misses / lookups (0 before any lookup).
func (c *Cache) MissRatio() float64 {
	total := c.stats.Hits + c.stats.Misses
	if total == 0 {
		return 0
	}
	return float64(c.stats.Misses) / float64(total)
}

// Check verifies the cache's internal invariants: slotOf and the slot
// arrays agree, the LRU list threads exactly the occupied slots, and
// residency respects the bound.
func (c *Cache) Check() error {
	if c.used > c.cfg.CachePages {
		return fmt.Errorf("mapcache: %d resident exceeds bound %d", c.used, c.cfg.CachePages)
	}
	mapped := 0
	for _, s := range c.slotOf {
		if s >= 0 {
			mapped++
		}
	}
	if mapped != c.used {
		return fmt.Errorf("mapcache: slotOf has %d entries, %d slots used", mapped, c.used)
	}
	seen := 0
	for s := c.head; s >= 0; s = c.next[s] {
		if c.slotOf[c.tvpn[s]] != s {
			return fmt.Errorf("mapcache: slot %d holds tvpn %d but slotOf disagrees", s, c.tvpn[s])
		}
		seen++
		if seen > c.used {
			return errors.New("mapcache: LRU list longer than occupancy (cycle?)")
		}
	}
	if seen != c.used {
		return fmt.Errorf("mapcache: LRU list threads %d slots, %d occupied", seen, c.used)
	}
	return nil
}
