// Package ssdcache implements the SSD-internal DRAM cache of FlatFlash
// (§3.1, §3.4): a set-associative page cache in front of the NAND flash,
// using Re-reference Interval Prediction (RRIP) replacement — chosen by the
// paper for its hit rate on random page accesses — with per-page access
// counters (Algorithm 1's PageCntArray) and dirty-page tracking for the
// read-modify-write garbage collector.
//
// The cache occupies the controller DRAM freed by merging the FTL into the
// host page table, and in FlatFlash it is battery-backed: dirty data that
// reached it is persistent (§3.5). Crash semantics are modeled in the core
// package; this package is the data structure.
package ssdcache

import (
	"fmt"
	"sort"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// ReplacementPolicy selects the victim-selection algorithm.
type ReplacementPolicy int

// Supported replacement policies. RRIP is the paper's choice; LRU exists as
// the ablation baseline.
const (
	RRIP ReplacementPolicy = iota
	LRU
)

// rrpvMax is the 2-bit RRPV ceiling ("distant re-reference").
const rrpvMax = 3

// rrpvInsert is the RRPV given to newly inserted pages ("long re-reference
// interval"), per the RRIP paper's SRRIP-HP configuration.
const rrpvInsert = 2

// Config describes cache geometry.
type Config struct {
	Pages    int // total capacity in pages
	Ways     int // associativity
	PageSize int
	Policy   ReplacementPolicy
}

// DefaultWays is the default associativity.
const DefaultWays = 8

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("ssdcache: PageSize %d", c.PageSize)
	case c.Ways <= 0:
		return fmt.Errorf("ssdcache: Ways %d", c.Ways)
	case c.Pages < c.Ways || c.Pages%c.Ways != 0:
		return fmt.Errorf("ssdcache: Pages %d not a positive multiple of Ways %d", c.Pages, c.Ways)
	}
	return nil
}

// Entry is one cached page. PageCnt is Algorithm 1's per-page access
// counter; the core's SSD-Cache manager increments it via Touch and the
// promotion policy reads it. Owner labels the tenant whose access filled
// the entry (0 in single-actor runs), so consolidation experiments can
// report how the shared cache is partitioned by contention.
//
// Data is either the cache's own buffer or, for an entry filled by
// InsertShared, a read-only view of flash's buffer for the page. Every
// write into Data must call Cache.Own first.
type Entry struct {
	Valid   bool
	LPN     uint32
	Dirty   bool
	PageCnt int
	Owner   int
	Data    []byte

	shared bool // Data is a read-only view the cache does not own
	rrpv   uint8
	used   uint64 // LRU timestamp
}

// Shared reports whether e's Data is a read-only view filled by
// InsertShared and not yet taken over by Own. A shared entry is clean.
func (e *Entry) Shared() bool { return e.shared }

// Victim is a page displaced from the cache.
//
// A dirty victim evicted by an insert hands its buffer to the caller, who
// owns Data until it passes it back with Give (or gives it away, as a
// write-back to flash does). Any other victim's Data is the cache's: a
// clean buffer it recycles, valid only until the next insert or Own on the
// same cache, or a shared entry's flash view, which the cache just drops.
type Victim struct {
	LPN     uint32
	Dirty   bool
	PageCnt int
	Data    []byte
}

// Cache is the set-associative SSD-internal page cache.
type Cache struct {
	cfg   Config
	sets  [][]Entry
	nsets int
	tick  uint64

	obs *telemetry.Sink // nil when instrumentation is disabled
	now func() sim.Time // clock source for event timestamps

	// free recycles the cache's own page buffers, last in first out, into
	// Insert and Own: Remove and clean evictions push the displaced buffer,
	// and Give takes back a buffer handed out with a dirty victim. It never
	// holds more than Pages buffers, and never a shared entry's view, so
	// steady-state cache churn allocates nothing (see Victim.Data).
	free [][]byte

	hits, misses, evictions, dirtyEvicts int64
}

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Pages / cfg.Ways
	c := &Cache{cfg: cfg, nsets: nsets, sets: make([][]Entry, nsets)}
	for i := range c.sets {
		c.sets[i] = make([]Entry, cfg.Ways)
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetSink attaches the instrumentation sink: hit/miss/eviction events on
// the SSD track, and each hit charges the cache's internal access cost to
// the cache-fill component. The cache has no clock of its own, so the owner
// supplies now (typically the hierarchy's Clock.Now). A nil sink disables
// it.
func (c *Cache) SetSink(s *telemetry.Sink, now func() sim.Time) {
	c.obs, c.now = s, now
}

//flatflash:hotpath
func (c *Cache) setOf(lpn uint32) int { return int(lpn) % c.nsets }

// Lookup finds lpn in the cache. On a hit it applies the replacement
// policy's hit update (RRPV -> 0, or LRU timestamp) and returns the entry
// for in-place read/write by the manager.
//
//flatflash:hotpath
func (c *Cache) Lookup(lpn uint32) (*Entry, bool) {
	if e := c.find(lpn); e != nil {
		c.hits++
		c.tick++
		e.rrpv = 0
		e.used = c.tick
		// The guard skips the c.now clock read when no sink is attached.
		if c.obs != nil {
			// The hit is an instant event that still charges AccessCost.
			at := c.now()
			c.obs.Observe(telemetry.EvCacheHit, telemetry.TrackSSD, at, at.Add(AccessCost), int64(lpn))
		}
		return e, true
	}
	c.misses++
	// The guard skips the c.now clock read when no sink is attached.
	if c.obs != nil {
		at := c.now()
		c.obs.Observe(telemetry.EvCacheMiss, telemetry.TrackSSD, at, at, int64(lpn))
	}
	return nil, false
}

// Contains reports whether lpn is cached, without touching replacement
// state or hit/miss counters.
//
//flatflash:hotpath
func (c *Cache) Contains(lpn uint32) bool { return c.find(lpn) != nil }

// find returns lpn's entry, or nil if lpn is not cached.
//
//flatflash:hotpath
func (c *Cache) find(lpn uint32) *Entry {
	set := c.sets[c.setOf(lpn)]
	for i := range set {
		if e := &set[i]; e.Valid && e.LPN == lpn {
			return e
		}
	}
	return nil
}

// Touch increments the entry's page access counter (Algorithm 1's
// PageCntArray[set][way]++) and returns the new value.
//
//flatflash:hotpath
func (c *Cache) Touch(e *Entry) int {
	e.PageCnt++
	return e.PageCnt
}

// Own makes e's Data the cache's own buffer before a write into it: a shared
// entry's flash view is copied once into a free-list (or new) buffer, and
// the view is left untouched. Own on an entry the cache already owns does nothing.
func (c *Cache) Own(e *Entry) {
	if !e.shared {
		return
	}
	buf := c.buffer()
	copy(buf, e.Data)
	e.Data, e.shared = buf, false
}

// Give returns a page buffer to the cache's free list: a dirty victim's Data
// once the caller is done with it, or the buffer flash handed back in
// exchange for it. A nil buf, or one more than the list holds, is dropped.
func (c *Cache) Give(buf []byte) {
	if buf != nil && len(c.free) < c.cfg.Pages {
		c.free = append(c.free, buf)
	}
}

// buffer pops a recycled page buffer, or allocates one.
func (c *Cache) buffer() []byte {
	if n := len(c.free); n > 0 {
		buf := c.free[n-1]
		c.free = c.free[:n-1]
		return buf
	}
	return make([]byte, c.cfg.PageSize)
}

// Insert places a copy of data into the cache. If the target set is full, a
// victim is selected by the configured policy and returned (ok=true) so the
// manager can write it back if dirty and report its PageCnt to Algorithm 1's
// ADJUST_CNT. The inserted entry is returned too.
//
// Inserting an LPN that is already present is a bug in the manager and
// panics.
func (c *Cache) Insert(lpn uint32, data []byte, dirty bool) (e *Entry, victim Victim, evicted bool) {
	return c.insert(lpn, data, dirty, false)
}

// InsertShared is Insert of a clean page that stores view itself — flash's
// read-only buffer for the page (ftl.FTL.ReadPageShared) — instead of a
// copy. The entry stays shared until Own; the caller must keep view valid
// for as long, which flash does while the page is lpn's current copy.
func (c *Cache) InsertShared(lpn uint32, view []byte) (e *Entry, victim Victim, evicted bool) {
	return c.insert(lpn, view, false, true)
}

func (c *Cache) insert(lpn uint32, data []byte, dirty, shared bool) (e *Entry, victim Victim, evicted bool) {
	if len(data) != c.cfg.PageSize {
		panic("ssdcache: bad page size on insert")
	}
	if c.Contains(lpn) {
		panic("ssdcache: double insert")
	}
	si := c.setOf(lpn)
	set := c.sets[si]
	way := -1
	for i := range set {
		if !set[i].Valid {
			way = i
			break
		}
	}
	if way == -1 {
		way = c.victimWay(set)
		v := &set[way]
		victim = Victim{LPN: v.LPN, Dirty: v.Dirty, PageCnt: v.PageCnt, Data: v.Data}
		evicted = true
		c.evictions++
		if v.Dirty {
			c.dirtyEvicts++
		}
		// The guard skips the c.now clock read when no sink is attached.
		if c.obs != nil {
			at := c.now()
			c.obs.Observe(telemetry.EvCacheEvict, telemetry.TrackSSD, at, at, int64(v.LPN))
		}
	}
	c.tick++
	buf := data
	if !shared {
		// data may already be the buffer on top of the free list (Remove
		// followed by re-Insert of the removed page), and then there is
		// nothing to copy.
		buf = c.buffer()
		if &buf[0] != &data[0] {
			copy(buf, data)
		}
	}
	if evicted && !victim.Dirty && !set[way].shared {
		// Recycled after this insert took its buffer, so a clean victim's
		// Data stays readable until the next one.
		c.Give(victim.Data)
	}
	set[way] = Entry{
		Valid:   true,
		LPN:     lpn,
		Dirty:   dirty,
		PageCnt: 0,
		Data:    buf,
		shared:  shared,
		rrpv:    rrpvInsert,
		used:    c.tick,
	}
	return &set[way], victim, evicted
}

// victimWay picks the way to evict from a full set.
func (c *Cache) victimWay(set []Entry) int {
	if c.cfg.Policy == LRU {
		best, bestUsed := 0, set[0].used
		for i := 1; i < len(set); i++ {
			if set[i].used < bestUsed {
				best, bestUsed = i, set[i].used
			}
		}
		return best
	}
	// RRIP: evict the first entry with RRPV == max; if none, age everyone
	// and retry (guaranteed to terminate within rrpvMax rounds).
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

// Remove evicts lpn explicitly (promotion completion removes the page from
// the SSD-Cache — its home is now host DRAM). It returns the removed page.
func (c *Cache) Remove(lpn uint32) (Victim, bool) {
	e := c.find(lpn)
	if e == nil {
		return Victim{}, false
	}
	v := Victim{LPN: e.LPN, Dirty: e.Dirty, PageCnt: e.PageCnt, Data: e.Data}
	if !e.shared {
		// The removed buffer is recycled by the next insert or Own; until
		// then the caller may read v.Data (PLB snapshot, stall-copy).
		c.Give(v.Data)
	}
	*e = Entry{}
	return v, true
}

// DirtyData implements ftl.DirtySource: if lpn is cached dirty, it returns
// the entry's own buffer (a dirty entry is never shared), valid until the
// next insert or Remove. The entry stays dirty: GC calls Cleaned once flash holds
// the data.
func (c *Cache) DirtyData(lpn uint32) ([]byte, bool) {
	if e := c.find(lpn); e != nil && e.Dirty {
		return e.Data, true
	}
	return nil, false
}

// Cleaned implements ftl.DirtySource: it marks lpn's entry, if any, clean.
func (c *Cache) Cleaned(lpn uint32) {
	if e := c.find(lpn); e != nil {
		e.Dirty = false
	}
}

// TakeDirty is DirtyData then Cleaned, for Drain: the entry is clean before
// the FTL write that persists it, so that write's own garbage collection
// relocates the flash copy rather than this one.
func (c *Cache) TakeDirty(lpn uint32) ([]byte, bool) {
	data, ok := c.DirtyData(lpn)
	c.Cleaned(lpn)
	return data, ok
}

// DirtyPages returns the LPNs of all dirty entries (used by crash-recovery
// and by periodic flushing).
func (c *Cache) DirtyPages() []uint32 {
	var out []uint32
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid && set[i].Dirty {
				out = append(out, set[i].LPN)
			}
		}
	}
	return out
}

// DropDirtyBeyond models a drained battery at power loss: only the first
// keep dirty pages in ascending-LPN order (the deterministic flush order of
// the firmware's power-loss handler) survive; the rest are invalidated as if
// they never reached the persistence domain. It returns how many dirty pages
// were lost.
func (c *Cache) DropDirtyBeyond(keep int) int {
	dirty := c.DirtyPages()
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	if keep < 0 {
		keep = 0
	}
	if keep >= len(dirty) {
		return 0
	}
	for _, lpn := range dirty[keep:] {
		c.Remove(lpn)
	}
	return len(dirty) - keep
}

// Each calls fn on every resident entry in set and way order, stopping at
// the first error, which it returns. fn may read the entry but must not
// write its Data.
func (c *Cache) Each(fn func(e *Entry) error) error {
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid {
				if err := fn(&set[i]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// ResetPageCnts clears every entry's Algorithm 1 access counter (the
// counters live in controller SRAM and do not survive power loss).
func (c *Cache) ResetPageCnts() {
	for _, set := range c.sets {
		for i := range set {
			set[i].PageCnt = 0
		}
	}
}

// OwnerPages counts the resident pages whose Entry.Owner is owner. It walks
// the whole cache, so callers sample it at report time, not per access.
func (c *Cache) OwnerPages(owner int) int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].Valid && set[i].Owner == owner {
				n++
			}
		}
	}
	return n
}

// Stats returns hits, misses, evictions and dirty evictions.
func (c *Cache) Stats() (hits, misses, evictions, dirtyEvicts int64) {
	return c.hits, c.misses, c.evictions, c.dirtyEvicts
}

// HitRatio returns hits/(hits+misses), or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// SizeFor returns the number of cache pages implied by the paper's sizing
// rule — fraction (default 0.125%) of the SSD capacity — rounded up to a
// multiple of ways and at least one set.
func SizeFor(ssdBytes uint64, fraction float64, pageSize, ways int) int {
	pages := int(float64(ssdBytes) * fraction / float64(pageSize))
	if pages < ways {
		pages = ways
	}
	if r := pages % ways; r != 0 {
		pages += ways - r
	}
	return pages
}

// AccessCost is a helper shared by SSD controllers: the internal DRAM access
// time for a cache hit inside the SSD. It is small compared to the PCIe
// MMIO cost that dominates (§5, Table 2) but kept explicit for fidelity.
const AccessCost = 200 * sim.Nanosecond
