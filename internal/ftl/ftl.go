// Package ftl implements a page-level flash translation layer over the NAND
// device model: logical-to-physical mapping, sequential allocation into an
// active block, greedy garbage collection with the paper's read-modify-write
// merge of dirty SSD-Cache pages (§4), write-amplification accounting, and
// the lazy, batched PTE/TLB remap propagation FlatFlash uses when GC moves
// pages (one interrupt per relocation batch).
//
// In FlatFlash the FTL's mapping is merged into the host page table (§3.2,
// following FlashMap). This package therefore exposes stable logical page
// numbers to the host layers: the host PTE stores the SSD page identifier,
// and physical relocation by GC is absorbed here, exactly as the paper's
// in-SSD forwarding table does, with the batched-interrupt cost surfaced in
// RemapStats.
package ftl

import (
	"errors"
	"fmt"

	"flatflash/internal/flash"
	"flatflash/internal/mapcache"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Errors returned by the FTL.
var (
	ErrNoSpace    = errors.New("ftl: device full (overprovisioning exhausted)")
	ErrOutOfRange = errors.New("ftl: logical page out of range")
)

const noLogical = int32(-1)

// DirtySource lets garbage collection merge newer page contents held dirty
// in the SSD-Cache (the paper's read-modify-write GC). DirtyData returns the
// up-to-date contents of logical page lpn, or false if the cache holds
// nothing newer; the slice may be the source's own storage, or nil if the
// source wrote them into flash's own buffer for lpn's page. GC programs
// them — moving that buffer in the nil case — and only then calls Cleaned
// to mark the cached copy clean.
type DirtySource interface {
	DirtyData(lpn uint32) ([]byte, bool)
	Cleaned(lpn uint32)
}

// Config parameterizes the FTL.
type Config struct {
	Flash flash.Config
	// OverprovisionBlocks is the number of physical blocks hidden from the
	// logical capacity and reserved for GC headroom.
	OverprovisionBlocks int
	// GCFreeBlocksLow triggers garbage collection when the free-block pool
	// falls to this size.
	GCFreeBlocksLow int
	// WearLeveling makes GC victim selection wear-aware: among candidate
	// blocks, higher erase counts penalize selection so erases spread
	// evenly. Disabled, victims are chosen greedily by valid count alone.
	WearLeveling bool

	// MapCachePages > 0 enables the demand-paged translation map (DFTL
	// style): the L2P map is sliced into translation pages stored in flash
	// as their own page type, and only MapCachePages of them stay resident
	// in the cached mapping table at a time. Map misses fetch the
	// translation page from flash; evicted dirty pages are written back in
	// batches of mapWriteBackBatch. The map is pipelined (FMMU style): a
	// host write's map access overlaps its data program, and the batched
	// write-backs run off the critical path. Reads still serialize the map
	// fetch before the data read — the data's location is the fetch's
	// output. 0 (the default) keeps the whole map host-resident, with
	// behavior and reports byte-identical to before the mode existed.
	MapCachePages int
	// MapCheckpointEvery checkpoints the map — flush every dirty
	// translation page and commit the GTD root — after this many page
	// programs (default 256 when zero; negative disables periodic
	// checkpoints, leaving only explicit FlushMap calls).
	MapCheckpointEvery int
}

// DefaultConfig returns an FTL over flash.DefaultConfig with 1/8 of blocks
// overprovisioned.
func DefaultConfig() Config {
	fc := flash.DefaultConfig()
	return Config{
		Flash:               fc,
		OverprovisionBlocks: fc.Blocks / 8,
		GCFreeBlocksLow:     2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	if c.OverprovisionBlocks < 1 || c.OverprovisionBlocks >= c.Flash.Blocks {
		return fmt.Errorf("ftl: OverprovisionBlocks %d of %d", c.OverprovisionBlocks, c.Flash.Blocks)
	}
	if c.GCFreeBlocksLow < 1 || c.GCFreeBlocksLow > c.OverprovisionBlocks {
		return fmt.Errorf("ftl: GCFreeBlocksLow %d", c.GCFreeBlocksLow)
	}
	if c.MapCachePages < 0 {
		return fmt.Errorf("ftl: MapCachePages %d", c.MapCachePages)
	}
	return nil
}

// RemapStats reports GC relocation activity and the cost FlatFlash pays to
// lazily propagate new mappings to host PTEs/TLBs in batches (§4).
type RemapStats struct {
	Relocations      int64 // data pages moved by GC
	TransRelocations int64 // translation pages moved by GC (demand-paged map)
	BatchInterrupts  int64 // one per GC pass that relocated pages
	GCRuns           int64
	ErasedBlocks     int64
	BadBlocks        int64 // blocks retired after program/erase failures
}

// FTL is a page-mapped flash translation layer.
type FTL struct {
	cfg Config
	dev *flash.Device

	l2p        pageMap[flash.PageAddr] // logical -> physical
	p2l        pageMap[int32]          // physical -> logical, noLogical if none
	validCount []int                   // valid pages per block
	freeBlocks []int                   // FIFO: allocSlot opens the oldest first
	bad        []bool                  // retired blocks: never programmed, erased, or GC'd again
	active     int                     // active block, -1 if none
	activeNext int                     // next page slot within active block

	dirtySrc DirtySource
	inGC     bool
	gcFree   []bool          // pickVictim's free-block marks, rebuilt on every call
	obs      *telemetry.Sink // nil when instrumentation is disabled

	hostWrites  int64 // page writes requested by the host layers
	flashWrites int64 // data-page programs issued to the device
	transWrites int64 // translation-page programs (demand-paged map)
	remap       RemapStats

	zero []byte // read-only view of every unmapped logical page

	// Demand-paged translation map state (nil/empty when MapCachePages=0).
	mc         *mapcache.Cache
	epp        int            // L2P entries per translation page
	transBuf   []byte         // scratch for translation-page serialization
	p2t        pageMap[int32] // physical page -> tvpn (OOB tag), -1 if none
	blockStamp []int64        // per-block sequence of the last program (OOB)
	mapSeq     int64          // monotone map-mutation/program sequence
	sinceCkpt  int64          // programs since the last checkpoint
	wbPending  []uint32       // evicted dirty tvpns awaiting a batched write-back
	lastRec    RecoveryInfo
}

// New builds an FTL (and its flash device) from cfg.
func New(cfg Config) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev, err := flash.NewDevice(cfg.Flash)
	if err != nil {
		return nil, err
	}
	f := &FTL{
		cfg:        cfg,
		dev:        dev,
		l2p:        newPageMap(cfg.LogicalPages(), flash.InvalidPage),
		p2l:        newPageMap(cfg.Flash.TotalPages(), noLogical),
		validCount: make([]int, cfg.Flash.Blocks),
		bad:        make([]bool, cfg.Flash.Blocks),
		active:     -1,
		gcFree:     make([]bool, cfg.Flash.Blocks),
		zero:       make([]byte, cfg.Flash.PageSize),
	}
	for b := 0; b < cfg.Flash.Blocks; b++ {
		f.freeBlocks = append(f.freeBlocks, b)
	}
	if cfg.MapCachePages > 0 {
		if err := f.initDemandMap(); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// LogicalPages returns the number of logical pages the FTL exports: total
// physical pages minus overprovisioning.
func (c Config) LogicalPages() int {
	return (c.Flash.Blocks - c.OverprovisionBlocks) * c.Flash.PagesPerBlock
}

// LogicalPages returns the exported logical capacity in pages.
func (f *FTL) LogicalPages() int { return f.cfg.LogicalPages() }

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// PageSize returns the page size in bytes.
func (f *FTL) PageSize() int { return f.cfg.Flash.PageSize }

// Device exposes the underlying flash device (for wear statistics).
func (f *FTL) Device() *flash.Device { return f.dev }

// SetDirtySource registers the SSD-Cache hook used by read-modify-write GC.
func (f *FTL) SetDirtySource(src DirtySource) { f.dirtySrc = src }

// SetSink attaches the instrumentation sink to the FTL and its flash
// device: flash-service and GC spans on the flash track, the
// garbage-collection stall ahead of a host write charged to the GC
// component, and demand-paged map hits charged to map fetch (NAND service
// itself is charged by the device). Pipelined map write-backs suspend
// attribution through it, since the host does not wait for them. A nil sink
// disables it.
func (f *FTL) SetSink(s *telemetry.Sink) {
	f.obs = s
	f.dev.SetSink(s)
}

// IsMapped reports whether logical page lpn has ever been written.
func (f *FTL) IsMapped(lpn uint32) bool {
	return int(lpn) < f.l2p.len() && f.l2p.get(int(lpn)) != flash.InvalidPage
}

// ReadPage copies logical page lpn into buf and returns the completion
// time: ReadPageShared plus the copy.
func (f *FTL) ReadPage(now sim.Time, lpn uint32, buf []byte) (sim.Time, error) {
	if int(lpn) < f.l2p.len() && len(buf) != f.cfg.Flash.PageSize {
		return now, flash.ErrBadPageSize
	}
	data, _, done, err := f.ReadPageShared(now, lpn)
	if err == nil {
		copy(buf, data)
	}
	return done, err
}

// ReadPageShared reads logical page lpn and returns its flash page's own
// buffer, valid while that page stays lpn's copy (see
// flash.Device.ReadShared), with the completion time. A never-written page
// reads as the FTL's one zero page, but still pays a full device read: in
// the paper's setup the mapped file spans the whole SSD, so every logical
// page exists on flash whether or not the experiment wrote it. own reports
// that the buffer is the page's own — lpn is mapped and its page holds
// bytes — rather than the zero page or flash's erased page, which every
// such page shares. A caller may write an own buffer only as the SSD-Cache
// does, keeping flash's old bytes recoverable until WriteBack moves the new
// ones to a new page.
func (f *FTL) ReadPageShared(now sim.Time, lpn uint32) (data []byte, own bool, done sim.Time, err error) {
	if int(lpn) >= f.l2p.len() {
		return nil, false, now, ErrOutOfRange
	}
	if f.mc != nil {
		// The data's physical location is the map access's output, so a
		// read serializes behind the translation-page fetch.
		ready, err := f.mapAccess(now, lpn, false)
		if err != nil {
			return nil, false, now, err
		}
		now = ready
	}
	p := f.l2p.get(int(lpn))
	if p == flash.InvalidPage {
		// Charge the device for reading the page's on-flash location (it
		// holds file data the simulator models as zeros, never stored). The
		// read is counted by the alias page's OOB type, whatever that page
		// holds now.
		phys := flash.PageAddr(int(lpn) % f.cfg.Flash.TotalPages())
		data = f.zero
		done, err = f.dev.Sense(now, phys, f.cfg.Flash.PageSize)
	} else {
		data, own, done, err = f.dev.ReadShared(now, p)
	}
	if err != nil {
		return nil, false, now, err
	}
	f.obs.Observe(telemetry.SpanFlashRead, telemetry.TrackFlash, now, done, int64(lpn))
	return data, own, done, nil
}

// PageView returns the bytes ReadPageShared would return for lpn — its
// current flash page's buffer, or the zero page if lpn is unmapped — without
// charging anything, or nil if lpn is out of range. It exists for invariant
// checks that compare a held view against flash.
func (f *FTL) PageView(lpn uint32) []byte {
	if int(lpn) >= f.l2p.len() {
		return nil
	}
	if p := f.l2p.get(int(lpn)); p != flash.InvalidPage {
		return f.dev.PeekShared(p)
	}
	return f.zero
}

// WritePage writes a full logical page and returns the completion time.
// Out-of-place: the old physical page (if any) is invalidated and GC runs
// when the free-block pool is low.
func (f *FTL) WritePage(now sim.Time, lpn uint32, data []byte) (sim.Time, error) {
	_, done, err := f.writePage(now, lpn, data, false)
	return done, err
}

// WriteBack is WritePage of a dirty SSD-Cache page, with no copy: a non-nil
// data is handed to flash itself as the new page's bytes (see
// flash.Device.ProgramOwned), and a nil data moves the bytes lpn's current
// page holds to the new page (flash.Device.ProgramMove) — bytes written into
// flash's own buffer for lpn (ReadPageShared). It runs the same garbage
// collection, map access, program, counters and spans as WritePage.
// programmed reports that flash programmed the bytes, even if a later
// checkpoint failed; when it is false, data is still the caller's, or lpn's
// page still holds the bytes.
func (f *FTL) WriteBack(now sim.Time, lpn uint32, data []byte) (programmed bool, done sim.Time, err error) {
	return f.writePage(now, lpn, data, true)
}

// writePage is WritePage, handing data over to flash if own, or moving
// lpn's current bytes if data is nil; programmed says the program
// succeeded.
func (f *FTL) writePage(now sim.Time, lpn uint32, data []byte, own bool) (programmed bool, done sim.Time, err error) {
	if int(lpn) >= f.l2p.len() {
		return false, now, ErrOutOfRange
	}
	switch {
	case data == nil && !f.IsMapped(lpn):
		return false, now, flash.ErrNoData
	case data != nil && len(data) != f.cfg.Flash.PageSize:
		return false, now, flash.ErrBadPageSize
	}
	if !f.inGC {
		f.hostWrites++
		pre := now
		now, err = f.maybeGC(now)
		if err != nil {
			return false, now, err
		}
		if now.After(pre) {
			f.obs.Observe(telemetry.ChargeGCStall, telemetry.TrackFlash, pre, now, int64(lpn))
		}
	}
	mapReady := now
	if f.mc != nil {
		mapReady, err = f.mapAccess(now, lpn, true)
		if err != nil {
			return false, now, err
		}
	}
	// A move reads lpn's page only now: the garbage collection above may
	// have moved its bytes.
	p, done, err := f.programAt(now, data, own, f.l2p.get(int(lpn)), flash.PageData)
	if err != nil {
		return false, now, err
	}
	if mapReady.After(done) {
		// FMMU pipelining: the map fetch ran concurrently with the data
		// program; the write completes when the later of the two does.
		done = mapReady
	}
	f.invalidate(lpn)
	f.l2p.set(int(lpn), p)
	f.p2l.set(int(p), int32(lpn))
	f.validCount[f.dev.BlockOf(p)]++
	f.obs.Observe(telemetry.SpanFlashWrite, telemetry.TrackFlash, now, done, int64(lpn))
	if f.mc != nil && !f.inGC {
		done, err = f.maybeCheckpoint(done)
		if err != nil {
			return true, now, err
		}
	}
	return true, done, nil
}

// programAt allocates a slot and programs data into it — handing data over
// if own, or, if data is nil, moving page src's bytes there — with the
// given OOB page-type tag. An injected program failure retires the slot's
// block (bad-block remapping) and the write retries in a fresh block with
// the same bytes; the failed attempt's latency is still paid.
func (f *FTL) programAt(now sim.Time, data []byte, own bool, src flash.PageAddr, t flash.PageType) (flash.PageAddr, sim.Time, error) {
	for {
		p, err := f.allocSlot()
		if err != nil {
			return flash.InvalidPage, now, err
		}
		var done sim.Time
		switch {
		case data == nil:
			done, err = f.dev.ProgramMove(now, p, src, t)
		case own:
			done, err = f.dev.ProgramOwned(now, p, data, t)
		default:
			done, err = f.dev.ProgramTyped(now, p, data, t)
		}
		if err == nil {
			if t == flash.PageTrans {
				f.transWrites++
			} else {
				f.flashWrites++
			}
			if f.mc != nil {
				f.mapSeq++
				f.sinceCkpt++
				f.blockStamp[f.dev.BlockOf(p)] = f.mapSeq
			}
			return p, done, nil
		}
		if !errors.Is(err, flash.ErrProgramFailed) {
			return flash.InvalidPage, now, err
		}
		f.markBad(f.dev.BlockOf(p))
		now = done
	}
}

// markBad retires block b: it is abandoned as the active block, never
// rejoins the free pool, and GC skips it. Pages already valid in it remain
// readable.
func (f *FTL) markBad(b int) {
	if f.bad[b] {
		return
	}
	f.bad[b] = true
	f.remap.BadBlocks++
	if b == f.active {
		f.active = -1
	}
}

// Trim discards logical page lpn: subsequent reads return zeros and the old
// physical page becomes garbage.
func (f *FTL) Trim(lpn uint32) error {
	if int(lpn) >= f.l2p.len() {
		return ErrOutOfRange
	}
	if f.mc != nil && f.l2p.get(int(lpn)) != flash.InvalidPage {
		// A trim removes a mapping without programming anywhere, so it
		// leaves no new-copy evidence for recovery's partial OOB scan.
		// Stamp the old page's block as mutated: recovery then rescans it
		// and drops the stale persisted entry. The translation page itself
		// goes dirty so the next checkpoint persists the removal. Trim has
		// no clock, so the residency touch is timeless.
		f.mapSeq++
		f.blockStamp[f.dev.BlockOf(f.l2p.get(int(lpn)))] = f.mapSeq
		f.touchMapTimeless(lpn)
	}
	f.invalidate(lpn)
	f.l2p.set(int(lpn), flash.InvalidPage)
	return nil
}

// invalidate drops lpn's current physical copy. The FTL never reads a data
// page again once it is no longer mapped — reads go through l2p, GC moves
// only p2l-valid pages and recovery rebuilds from the OOB tags — so the
// device releases its bytes now rather than at the block's erase.
func (f *FTL) invalidate(lpn uint32) {
	old := f.l2p.get(int(lpn))
	if old == flash.InvalidPage {
		return
	}
	f.p2l.set(int(old), noLogical)
	f.validCount[f.dev.BlockOf(old)]--
	f.dev.Release(old)
}

// allocSlot hands out the next physical page in the active block, opening a
// new free block when the active one fills.
func (f *FTL) allocSlot() (flash.PageAddr, error) {
	ppb := f.cfg.Flash.PagesPerBlock
	if f.active == -1 || f.activeNext == ppb {
		if len(f.freeBlocks) == 0 {
			return flash.InvalidPage, ErrNoSpace
		}
		// Pop the head in place: reslicing from the front would shrink the
		// capacity until collect's append reallocates.
		f.active = f.freeBlocks[0]
		n := copy(f.freeBlocks, f.freeBlocks[1:])
		f.freeBlocks = f.freeBlocks[:n]
		f.activeNext = 0
	}
	p := flash.PageAddr(f.active*ppb + f.activeNext)
	f.activeNext++
	return p, nil
}

// maybeGC runs greedy garbage collection until the free pool recovers above
// the low-water mark. Victims are the blocks with the fewest valid pages;
// valid pages are relocated (merging newer dirty data from the SSD-Cache —
// the read/modify/write phases of §4) and the block is erased.
func (f *FTL) maybeGC(now sim.Time) (sim.Time, error) {
	for len(f.freeBlocks) <= f.cfg.GCFreeBlocksLow {
		victim := f.pickVictim()
		if victim == -1 {
			return now, nil // nothing reclaimable
		}
		var err error
		now, err = f.collect(now, victim)
		if err != nil {
			return now, err
		}
	}
	return now, nil
}

// wearWeight is how many valid pages one erase of wear is "worth" in
// wear-aware victim selection.
const wearWeight = 2

// pickVictim returns the garbage-collection victim: the non-active,
// non-free block with the lowest cost, or -1 if no block would yield free
// space. Cost is the valid-page count (pages that must be relocated), plus
// wearWeight per erase when wear-leveling is enabled so hot blocks rest.
// Ties go to the lowest block.
func (f *FTL) pickVictim() int {
	free := f.gcFree
	clear(free)
	for _, b := range f.freeBlocks {
		free[b] = true
	}
	best := -1
	bestCost := int64(1) << 62
	for b := 0; b < f.cfg.Flash.Blocks; b++ {
		if b == f.active || free[b] || f.bad[b] {
			continue
		}
		if f.validCount[b] >= f.cfg.Flash.PagesPerBlock {
			continue // erasing it frees nothing
		}
		cost := int64(f.validCount[b])
		if f.cfg.WearLeveling {
			cost += wearWeight * f.dev.BlockErases(b)
		}
		if cost < bestCost {
			best, bestCost = b, cost
		}
	}
	return best
}

func (f *FTL) collect(now sim.Time, victim int) (sim.Time, error) {
	f.inGC = true
	defer func() { f.inGC = false }()
	gcStart := now

	ppb := f.cfg.Flash.PagesPerBlock
	first := flash.PageAddr(victim * ppb)
	moved := int64(0)
	for i := 0; i < ppb; i++ {
		p := first + flash.PageAddr(i)
		lpn := f.p2l.get(int(p))
		if lpn == noLogical {
			if f.mc != nil && f.p2t.get(int(p)) != noTrans {
				// Live translation page in the victim: relocate it like
				// data, but through the GTD rather than the L2P map.
				done, err := f.relocateTransPage(now, p)
				if err != nil {
					return now, err
				}
				now = done
			}
			continue
		}
		// Read phase — unless the SSD-Cache holds a newer dirty copy, in
		// which case the modify phase substitutes it (read-modify-write GC).
		// The read only senses the page: the write phase moves its bytes,
		// as it does a dirty copy the cache wrote into the page's buffer.
		var data []byte
		dirty := false
		if f.dirtySrc != nil {
			data, dirty = f.dirtySrc.DirtyData(uint32(lpn))
		}
		if !dirty {
			done, err := f.dev.Sense(now, p, f.cfg.Flash.PageSize)
			if err != nil {
				return now, err
			}
			now = done
		}
		// Write phase: relocate into the active block. The cached copy turns
		// clean only once flash holds it.
		done, err := f.writeRelocated(now, uint32(lpn), data)
		if err != nil {
			return now, err
		}
		if dirty {
			f.dirtySrc.Cleaned(uint32(lpn))
		}
		now = done
		moved++
	}
	done, err := f.dev.Erase(now, victim)
	switch {
	case errors.Is(err, flash.ErrEraseFailed):
		// Bad-block remap: the victim is retired without rejoining the free
		// pool. Its valid pages were already relocated, so nothing is lost;
		// maybeGC simply picks another victim.
		f.markBad(victim)
	case err != nil:
		return now, err
	default:
		f.freeBlocks = append(f.freeBlocks, victim)
		f.remap.ErasedBlocks++
	}
	f.remap.GCRuns++
	f.remap.Relocations += moved
	if moved > 0 {
		// Lazy propagation of the new mappings to PTEs/TLBs happens in one
		// batch per GC pass, via a single interrupt (§4).
		f.remap.BatchInterrupts++
	}
	f.obs.Observe(telemetry.SpanGC, telemetry.TrackFlash, gcStart, done, int64(victim))
	return done, nil
}

// writeRelocated programs lpn's new copy — data, or if data is nil the
// bytes of its current page — and remaps lpn to it.
func (f *FTL) writeRelocated(now sim.Time, lpn uint32, data []byte) (sim.Time, error) {
	if f.mc != nil {
		// Relocation rewrites lpn's mapping, so its translation page must be
		// dirtied — otherwise a checkpoint taken between the move and a crash
		// would persist a stale entry whose block the partial recovery scan no
		// longer revisits, losing the mapping. The touch is bookkeeping only:
		// a full mapAccess here could fetch, evict, and write back translation
		// pages mid-GC, letting one collect() program more pages than the
		// victim frees (GC livelock). The l2p array is already authoritative.
		f.touchMapTimeless(lpn)
	}
	p, done, err := f.programAt(now, data, false, f.l2p.get(int(lpn)), flash.PageData)
	if err != nil {
		return now, err
	}
	f.invalidate(lpn)
	f.l2p.set(int(lpn), p)
	f.p2l.set(int(p), int32(lpn))
	f.validCount[f.dev.BlockOf(p)]++
	return done, nil
}

// WriteAmplification returns flash page programs (data plus translation
// pages — map maintenance is real wear) divided by host page writes, or 0 if
// the host has not written. With the default all-in-memory map the
// translation term is zero, so the ratio is unchanged.
func (f *FTL) WriteAmplification() float64 {
	if f.hostWrites == 0 {
		return 0
	}
	return float64(f.flashWrites+f.transWrites) / float64(f.hostWrites)
}

// Writes returns (hostWrites, data flashWrites) in page units; translation
// programs are reported separately by TransWrites.
func (f *FTL) Writes() (host, flashProgs int64) { return f.hostWrites, f.flashWrites }

// Remap returns GC relocation statistics.
func (f *FTL) Remap() RemapStats { return f.remap }

// RebuildL2P reconstructs the logical-to-physical map and the per-block
// valid counts after power loss. With the all-in-memory map it models the
// full OOB logical-address scan (the page's logical address is programmed
// with its data and survives the crash). With the demand-paged map it
// reloads persisted translation pages through the GTD and OOB-scans only the
// blocks programmed since the last checkpoint, falling back to the full scan
// if the GTD fails validation (see rebuildFromGTD). It returns the number of
// live mappings recovered.
func (f *FTL) RebuildL2P() int {
	if f.mc != nil {
		return f.rebuildFromGTD()
	}
	return f.installMap(f.rebuildFullScan())
}

// CheckConsistency verifies the FTL's internal invariants: l2p and p2l are
// mutual inverses, per-block valid counts match the mapping, free blocks
// hold no valid pages and are not retired, and the device keeps bytes for
// exactly the live data pages — valid ⊆ held ⊆ programmed, where only
// translation pages may be held without being valid (recovery may read a
// superseded copy until its block erases).
func (f *FTL) CheckConsistency() error {
	for p := 0; p < f.p2l.len(); p++ {
		pa, lpn := flash.PageAddr(p), f.p2l.get(p)
		held := f.dev.Holds(pa)
		switch {
		case held && f.dev.IsErased(pa):
			return fmt.Errorf("ftl: erased page %d holds bytes", p)
		case lpn != noLogical && !held:
			return fmt.Errorf("ftl: page %d maps lpn %d but holds no bytes", p, lpn)
		case held && lpn == noLogical && f.dev.TypeOf(pa) == flash.PageData:
			return fmt.Errorf("ftl: invalid data page %d still holds bytes", p)
		}
	}
	valid := make([]int, len(f.validCount))
	for p := 0; p < f.p2l.len(); p++ {
		lpn := f.p2l.get(p)
		if lpn == noLogical {
			continue
		}
		if int(lpn) >= f.l2p.len() {
			return fmt.Errorf("ftl: p2l[%d] = %d out of logical range", p, lpn)
		}
		if f.l2p.get(int(lpn)) != flash.PageAddr(p) {
			return fmt.Errorf("ftl: p2l[%d] = %d but l2p[%d] = %d", p, lpn, lpn, f.l2p.get(int(lpn)))
		}
		valid[f.dev.BlockOf(flash.PageAddr(p))]++
	}
	for lpn := 0; lpn < f.l2p.len(); lpn++ {
		p := f.l2p.get(lpn)
		if p == flash.InvalidPage {
			continue
		}
		if int(p) >= f.p2l.len() || f.p2l.get(int(p)) != int32(lpn) {
			return fmt.Errorf("ftl: l2p[%d] = %d not mirrored in p2l", lpn, p)
		}
	}
	if f.mc != nil {
		for p := 0; p < f.p2t.len(); p++ {
			tvpn := f.p2t.get(p)
			if tvpn == noTrans {
				continue
			}
			if f.p2l.get(p) != noLogical {
				return fmt.Errorf("ftl: page %d tagged both data (lpn %d) and translation (tvpn %d)", p, f.p2l.get(p), tvpn)
			}
			if got := f.mc.GTD(uint32(tvpn)); got != flash.PageAddr(p) {
				return fmt.Errorf("ftl: p2t[%d] = %d but GTD points at %d", p, tvpn, got)
			}
			if f.dev.TypeOf(flash.PageAddr(p)) != flash.PageTrans {
				return fmt.Errorf("ftl: page %d holds tvpn %d but OOB type is not translation", p, tvpn)
			}
			valid[f.dev.BlockOf(flash.PageAddr(p))]++
		}
		for tvpn := 0; tvpn < f.mc.TransPages(); tvpn++ {
			addr := f.mc.GTD(uint32(tvpn))
			if addr == flash.InvalidPage {
				continue
			}
			if int(addr) >= f.p2t.len() || f.p2t.get(int(addr)) != int32(tvpn) {
				return fmt.Errorf("ftl: GTD[%d] = %d not mirrored in p2t", tvpn, addr)
			}
		}
		if err := f.mc.Check(); err != nil {
			return err
		}
	}
	for b := range valid {
		if valid[b] != f.validCount[b] {
			return fmt.Errorf("ftl: block %d valid count %d, mapping says %d", b, f.validCount[b], valid[b])
		}
	}
	for _, b := range f.freeBlocks {
		if f.bad[b] {
			return fmt.Errorf("ftl: retired block %d in free pool", b)
		}
		if valid[b] != 0 {
			return fmt.Errorf("ftl: free block %d holds %d valid pages", b, valid[b])
		}
	}
	return nil
}
