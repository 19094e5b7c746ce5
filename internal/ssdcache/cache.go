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
//
// A miss fill shares flash's buffer for the page instead of copying it
// (InsertShared). A write to such an entry lands in flash's buffer when the
// buffer is the page's own: the few 64 B lines it overwrites are saved first
// in a small per-entry undo log, so flash's old bytes stay recoverable until
// the page is written back — by moving the buffer, not copying it — or the
// lines are put back. A write that would save more than undoLines lines, and
// every path that needs flash's old bytes, takes the entry over with one
// copy instead (Own).
package ssdcache

import (
	"fmt"
	"sort"

	"flatflash/internal/flash"
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
// promotion policy reads it.
//
// Data is the cache's own buffer, or, for an entry filled by InsertShared,
// flash's buffer for the page. Such an entry is shared — a clean, read-only
// view — until a write: Write either writes flash's buffer in place, saving
// the lines it overwrites in the entry's undo log (the entry is then in
// place, and dirty), or takes the buffer over with Own. Every write into Data
// goes through Write, or calls Own first.
type Entry struct {
	Valid   bool
	Dirty   bool
	LPN     uint32
	PageCnt int
	Data    []byte

	shared   bool     // Data is flash's buffer for the page, not the cache's
	writable bool     // a shared Data is the page's own flash buffer, so Write may write it in place
	rrpv     uint8    // RRIP re-reference prediction value
	undo     *undoLog // flash's old bytes of the lines written in place; non-nil iff in place
	used     uint64   // LRU timestamp
}

// Shared reports whether e's Data is a clean, read-only view of flash's
// buffer, filled by InsertShared and not yet written.
func (e *Entry) Shared() bool { return e.shared && e.undo == nil }

// InPlace reports whether e's Data is flash's buffer for the page with writes
// in it: e is dirty, and its undo log holds flash's old bytes of every line
// written.
func (e *Entry) InPlace() bool { return e.undo != nil }

// FlashBytes appends to dst the bytes flash holds for e's page, as a crash or
// a read of flash would see them: Data, with an in-place entry's saved lines
// put back. It exists for tests.
func (e *Entry) FlashBytes(dst []byte) []byte {
	n := len(dst)
	dst = append(dst, e.Data...)
	if e.undo != nil {
		e.undo.restore(dst[n:])
	}
	return dst
}

// CheckUndo verifies an in-place entry's undo log: at most undoLines lines,
// each inside the page and saved once.
func (e *Entry) CheckUndo() error {
	u := e.undo
	if u == nil {
		return nil
	}
	if u.n < 0 || u.n > undoLines {
		return fmt.Errorf("ssdcache: lpn %d undo log holds %d lines, at most %d", e.LPN, u.n, undoLines)
	}
	for i := 0; i < u.n; i++ {
		if l := int(u.line[i]); l < 0 || l*lineSize >= len(e.Data) {
			return fmt.Errorf("ssdcache: lpn %d undo line %d outside a %d B page", e.LPN, l, len(e.Data))
		}
		for j := 0; j < i; j++ {
			if u.line[j] == u.line[i] {
				return fmt.Errorf("ssdcache: lpn %d undo log saves line %d twice", e.LPN, u.line[i])
			}
		}
	}
	return nil
}

// lineSize is the granularity of the undo log: a CPU cache line.
const lineSize = 64

// undoLines is how many lines an in-place entry may save. A write that needs
// more takes the page over with one copy instead (Own). The log is small so
// that it stays cache-resident: saving into a whole pooled page buffer
// instead cost persist-mix about 6% of its throughput.
const undoLines = 4

// undoLog holds flash's old bytes of the lines an in-place entry has
// written, in the order they were first written.
type undoLog struct {
	n    int
	line [undoLines]int32
	data [undoLines][lineSize]byte
}

// has reports whether line l is saved.
//
//flatflash:hotpath
func (u *undoLog) has(l int32) bool {
	for i := 0; i < u.n; i++ {
		if u.line[i] == l {
			return true
		}
	}
	return false
}

// restore puts every saved line back into page.
func (u *undoLog) restore(page []byte) {
	for i := 0; i < u.n; i++ {
		copy(page[int(u.line[i])*lineSize:], u.data[i][:])
	}
}

// Victim is a page displaced from the cache.
//
// A dirty victim evicted by an insert is written back by the caller, who
// then calls Settle: an owned victim hands its buffer to flash as the new
// page (ftl.FTL.WriteBack), and an in-place victim's Data is flash's buffer
// for the page, already holding the new bytes, which the write-back moves
// to the new page. Any other victim's Data is the pool's again: a clean
// buffer, valid only until the next insert or Own on the same cache or the
// next program on flash, or a shared entry's flash view, which the cache
// just drops.
type Victim struct {
	LPN     uint32
	Dirty   bool
	PageCnt int
	Data    []byte

	undo *undoLog // an in-place victim's saved lines, until Settle
}

// InPlace reports whether v was evicted in place: Data is flash's buffer
// for the page, written but not yet programmed.
func (v Victim) InPlace() bool { return v.undo != nil }

// Cache is the set-associative SSD-internal page cache. Its own page
// buffers come from the pool of the flash device behind it (SetPool).
type Cache struct {
	cfg   Config
	sets  [][]Entry
	nsets int
	tick  uint64

	obs *telemetry.Sink // nil when instrumentation is disabled
	now func() sim.Time // clock source for event timestamps

	// pool hands out the buffers of Insert and Own and takes back those of
	// Remove, clean evictions and unprogrammed write-backs, never a shared
	// entry's view, so steady-state churn allocates nothing.
	pool *flash.Pool

	// undoFree recycles in-place entries' undo logs: Write takes one for
	// an entry's first in-place write, and Own, Cleaned and Settle return
	// it. At most Pages logs are in use at a time.
	undoFree []*undoLog

	hits, misses, evictions, dirtyEvicts int64
}

// New builds an empty cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Pages / cfg.Ways
	c := &Cache{cfg: cfg, nsets: nsets, sets: make([][]Entry, nsets), pool: flash.NewPool(cfg.PageSize)}
	for i := range c.sets {
		c.sets[i] = make([]Entry, cfg.Ways)
	}
	return c, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// SetPool makes the cache draw its page buffers from p, the pool of the
// flash device behind it, instead of its own. It must be called before the
// first insert.
func (c *Cache) SetPool(p *flash.Pool) { c.pool = p }

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

// Write copies b into e's bytes at off and marks e dirty. A shared entry
// whose Data is the page's own flash buffer is written in place: each line b
// touches for the first time is saved in e's undo log beforehand. A write
// that would take the log past undoLines lines, or to any other shared entry
// (flash's zero or erased page), takes the entry over with Own first.
//
//flatflash:hotpath
func (c *Cache) Write(e *Entry, off int, b []byte) {
	if e.shared && !(e.writable && c.save(e, off, len(b))) {
		c.Own(e)
	}
	copy(e.Data[off:off+len(b)], b)
	e.Dirty = true
}

// save records in e's undo log every line of Data[off:off+n] not saved yet,
// taking a log for e's first in-place write. It reports false, saving
// nothing, if the log cannot hold them all.
//
//flatflash:hotpath
func (c *Cache) save(e *Entry, off, n int) bool {
	first, last := int32(off/lineSize), int32((off+n-1)/lineSize)
	if n == 0 {
		last = first - 1
	}
	u := e.undo
	if u != nil {
		fresh := 0
		for l := first; l <= last; l++ {
			if !u.has(l) {
				fresh++
			}
		}
		if u.n+fresh > undoLines {
			return false
		}
	} else {
		if int(last-first) >= undoLines {
			return false
		}
		u = c.undoLog()
		e.undo = u
	}
	for l := first; l <= last; l++ {
		if !u.has(l) {
			copy(u.data[u.n][:], e.Data[int(l)*lineSize:])
			u.line[u.n] = l
			u.n++
		}
	}
	return true
}

// undoLog pops a recycled, empty undo log, or allocates one.
//
//flatflash:coldpath
func (c *Cache) undoLog() *undoLog {
	if n := len(c.undoFree); n > 0 {
		u := c.undoFree[n-1]
		c.undoFree = c.undoFree[:n-1]
		return u
	}
	return new(undoLog)
}

// dropUndo empties u and returns it to the pool.
func (c *Cache) dropUndo(u *undoLog) {
	u.n = 0
	c.undoFree = append(c.undoFree, u)
}

// Own makes e's Data the cache's own buffer before a write into it: a shared
// entry's flash view is copied once into a pooled buffer, and the view is
// left untouched. An in-place entry is copied the same way, with its
// writes, and its saved lines then go back into flash's buffer, so flash
// again holds the page's old bytes. Own on an entry the cache already owns
// does nothing.
//
//flatflash:coldpath
func (c *Cache) Own(e *Entry) {
	if !e.shared {
		return
	}
	buf := c.pool.Get()
	copy(buf, e.Data)
	if u := e.undo; u != nil {
		u.restore(e.Data)
		c.dropUndo(u)
		e.undo = nil
	}
	e.Data, e.shared, e.writable = buf, false, false
}

// OwnAll takes over every in-place entry with Own, so that flash holds only
// bytes it programmed: what a power loss leaves on it, with the cache's
// battery-backed copy of each dirty page beside it.
func (c *Cache) OwnAll() {
	for _, set := range c.sets {
		for i := range set {
			if set[i].undo != nil {
				c.Own(&set[i])
			}
		}
	}
}

// Settle ends the write-back of a dirty victim; programmed says flash
// programmed its bytes. An owned victim's buffer is then flash's page, or,
// if not programmed, goes back to the pool with the bytes it held. An
// in-place victim returns its undo log to the pool; if not programmed, the
// saved lines first go back into flash's buffer, so flash keeps the page's
// old bytes there too. Settle ignores a clean victim.
func (c *Cache) Settle(v Victim, programmed bool) {
	switch {
	case v.undo != nil:
		if !programmed {
			v.undo.restore(v.Data)
		}
		c.dropUndo(v.undo)
	case v.Dirty && !programmed:
		c.pool.Put(v.Data)
	}
}

// Insert places a copy of data into the cache. If the target set is full, a
// victim is selected by the configured policy and returned (ok=true) so the
// manager can write it back if dirty and report its PageCnt to Algorithm 1's
// ADJUST_CNT. The inserted entry is returned too.
//
// Inserting an LPN that is already present is a bug in the manager and
// panics.
func (c *Cache) Insert(lpn uint32, data []byte, dirty bool) (e *Entry, victim Victim, evicted bool) {
	return c.insert(lpn, data, dirty, false, false)
}

// InsertShared is Insert of a clean page that stores view itself — flash's
// buffer for the page (ftl.FTL.ReadPageShared) — instead of a copy. The
// caller must keep view valid while the entry holds it, which flash does
// while the page is lpn's current copy. writable says view is that page's
// own buffer, which Write may then write in place; otherwise (flash's zero
// or erased page) the first write takes the entry over with Own.
func (c *Cache) InsertShared(lpn uint32, view []byte, writable bool) (e *Entry, victim Victim, evicted bool) {
	return c.insert(lpn, view, false, true, writable)
}

func (c *Cache) insert(lpn uint32, data []byte, dirty, shared, writable bool) (e *Entry, victim Victim, evicted bool) {
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
		victim = Victim{LPN: v.LPN, Dirty: v.Dirty, PageCnt: v.PageCnt, Data: v.Data, undo: v.undo}
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
		// data may already be the buffer on top of the pool (Remove followed
		// by re-Insert of the removed page), and then there is nothing to
		// copy.
		buf = c.pool.Get()
		if &buf[0] != &data[0] {
			copy(buf, data)
		}
	}
	if evicted && !victim.Dirty && !set[way].shared {
		// Recycled after this insert took its buffer, so a clean victim's
		// Data stays readable until the next one.
		c.pool.Put(victim.Data)
	}
	set[way] = Entry{
		Valid:    true,
		LPN:      lpn,
		Dirty:    dirty,
		PageCnt:  0,
		Data:     buf,
		shared:   shared,
		writable: writable,
		rrpv:     rrpvInsert,
		used:     c.tick,
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
// An in-place entry is taken over with Own first, so flash keeps its old
// bytes and the page's new ones leave with the cache's buffer.
func (c *Cache) Remove(lpn uint32) (Victim, bool) {
	e := c.find(lpn)
	if e == nil {
		return Victim{}, false
	}
	if e.undo != nil {
		c.Own(e)
	}
	v := Victim{LPN: e.LPN, Dirty: e.Dirty, PageCnt: e.PageCnt, Data: e.Data}
	if !e.shared {
		// The removed buffer is recycled by the next insert, Own or flash
		// program; until then the caller may read v.Data (PLB snapshot,
		// stall-copy).
		c.pool.Put(v.Data)
	}
	*e = Entry{}
	return v, true
}

// DirtyData implements ftl.DirtySource: if lpn is cached dirty, it returns
// the entry's own buffer, valid until the next insert or Remove, or nil for
// an in-place entry, whose bytes flash's buffer for the page already holds.
// The entry stays dirty: GC calls Cleaned once flash holds the data.
func (c *Cache) DirtyData(lpn uint32) ([]byte, bool) {
	if e := c.find(lpn); e != nil && e.Dirty {
		if e.undo != nil {
			return nil, true
		}
		return e.Data, true
	}
	return nil, false
}

// Cleaned implements ftl.DirtySource: it marks lpn's entry, if any, clean.
// An in-place entry turns back into a shared view, since the page flash
// programmed holds its buffer.
func (c *Cache) Cleaned(lpn uint32) {
	if e := c.find(lpn); e != nil {
		e.Dirty = false
		if u := e.undo; u != nil {
			c.dropUndo(u)
			e.undo = nil
		}
	}
}

// TakeDirty is DirtyData then Cleaned, for Drain, of an entry taken over
// with Own first if in place: the entry is clean before the FTL write that
// persists its buffer, so that write's own garbage collection relocates the
// flash copy rather than this one.
func (c *Cache) TakeDirty(lpn uint32) ([]byte, bool) {
	e := c.find(lpn)
	if e == nil || !e.Dirty {
		return nil, false
	}
	if e.undo != nil {
		c.Own(e)
	}
	e.Dirty = false
	return e.Data, true
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
