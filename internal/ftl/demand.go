// Demand-paged translation map (DFTL-style): the FTL's L2P map, sliced into
// translation pages that live in flash as their own OOB-tagged page type,
// fronted by mapcache's bounded cached mapping table and global translation
// directory (GTD). This file owns the flash side of the split: fetches on a
// map miss, batched write-back of evicted dirty pages, checkpointing, GC
// relocation of translation pages, and the GTD-driven recovery path that
// replaces the full OOB scan after a crash.
//
// The l2p array stays authoritative for *contents* in both modes — demand
// paging changes when map accesses cost time and what must be persisted, not
// where the simulator keeps the truth. That keeps the two modes bit-equal on
// data results by construction, which the equivalence tests then verify.
package ftl

import (
	"encoding/binary"
	"fmt"

	"flatflash/internal/flash"
	"flatflash/internal/mapcache"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// MapHitCost is the cached-mapping-table lookup latency charged on a map
// hit: an in-controller SRAM/DRAM structure walk, far below NAND latency but
// not free once every host access pays it.
const MapHitCost = 200 * sim.Nanosecond

const noTrans = int32(-1)

// mapWriteBackBatch is how many evicted dirty translation pages accumulate
// before one batched write-back.
const mapWriteBackBatch = 4

// RecoveryInfo describes how the last RebuildL2P ran in demand-paged mode.
type RecoveryInfo struct {
	UsedGTD        bool // map reloaded from persisted translation pages
	Fallback       bool // GTD validation failed; full OOB scan used instead
	TransPagesRead int  // translation pages fetched during GTD recovery
	ScannedBlocks  int  // blocks OOB-scanned (programmed since the checkpoint)
	ScannedPages   int  // pages OOB-scanned within those blocks
	EquivMismatch  bool // GTD result disagreed with the full scan (adopted scan)
	Entries        int  // live mappings recovered
}

func (f *FTL) initDemandMap() error {
	f.epp = f.cfg.Flash.PageSize / mapcache.EntryBytes
	if f.epp <= 0 {
		return fmt.Errorf("ftl: PageSize %d below one map entry", f.cfg.Flash.PageSize)
	}
	transPages := (f.cfg.LogicalPages() + f.epp - 1) / f.epp
	mc, err := mapcache.New(mapcache.Config{
		TransPages: transPages,
		CachePages: f.cfg.MapCachePages,
	})
	if err != nil {
		return err
	}
	f.mc = mc
	f.transBuf = make([]byte, f.cfg.Flash.PageSize)
	f.p2t = newPageMap(f.cfg.Flash.TotalPages(), noTrans)
	f.blockStamp = make([]int64, f.cfg.Flash.Blocks)
	return nil
}

// mapAccess consults the cached mapping table for lpn's translation page and
// returns when the mapping is available: immediately after the table hit, or
// after the translation page is fetched from flash on a miss. dirty records
// that the caller is about to change the mapping, so the page must reach
// flash again before the next checkpoint completes.
func (f *FTL) mapAccess(now sim.Time, lpn uint32, dirty bool) (sim.Time, error) {
	tvpn := uint32(int(lpn) / f.epp)
	if f.mc.Lookup(tvpn) {
		f.obs.Observe(telemetry.ChargeMapHit, telemetry.TrackFlash, now, now.Add(MapHitCost), int64(lpn))
		now = now.Add(MapHitCost)
	} else {
		if addr := f.mc.GTD(tvpn); addr != flash.InvalidPage {
			// The fetch costs a page read, but its bytes are never decoded:
			// l2p is authoritative for contents (see the file comment).
			done, err := f.dev.Sense(now, addr, f.cfg.Flash.PageSize)
			if err != nil {
				return now, err
			}
			now = done
			f.mc.NoteFetch()
		} else {
			// Never persisted: the page materializes empty, no flash read.
			f.mc.NoteColdFill()
		}
		if v, evicted := f.mc.Insert(tvpn); evicted && v.Dirty {
			f.queueWriteBack(v.TVPN)
			if len(f.wbPending) >= mapWriteBackBatch {
				var err error
				now, err = f.flushWriteBacks(now)
				if err != nil {
					return now, err
				}
			}
		}
	}
	if dirty {
		if err := f.mc.MarkDirty(tvpn); err != nil {
			return now, err
		}
	}
	return now, nil
}

// touchMapTimeless records a mapping change made off the simulated clock
// (Trim) or inside GC relocation. A resident translation page is just marked
// dirty; a non-resident one is queued (deduplicated) for the next write-back
// batch, since the change must still be persisted before a checkpoint can
// declare the flash copy current.
func (f *FTL) touchMapTimeless(lpn uint32) {
	tvpn := uint32(int(lpn) / f.epp)
	if f.mc.Contains(tvpn) {
		_ = f.mc.MarkDirty(tvpn)
		return
	}
	f.queueWriteBack(tvpn)
}

// queueWriteBack enqueues tvpn for the next write-back flush, dropping
// duplicates (re-persisting the same page in one batch would be pure wear).
func (f *FTL) queueWriteBack(tvpn uint32) {
	for _, q := range f.wbPending {
		if q == tvpn {
			return
		}
	}
	f.wbPending = append(f.wbPending, tvpn)
}

// flushWriteBacks persists every queued evicted-dirty translation page off
// the critical path: the host does not wait, so the returned time is
// unchanged, and the suspension is held across the whole batch so every
// program charges to the background account (the programs still occupy
// channel time, so later operations feel the contention — that is the
// pipelining model). The defer keeps Resume paired with Suspend on every
// path, the error return mid-batch included.
func (f *FTL) flushWriteBacks(now sim.Time) (sim.Time, error) {
	if len(f.wbPending) == 0 {
		return now, nil
	}
	f.obs.Suspend()
	defer f.obs.Resume()
	t := now
	for _, tvpn := range f.wbPending {
		done, err := f.persistTransPage(t, tvpn)
		if err != nil {
			return now, err
		}
		t = done
	}
	f.wbPending = f.wbPending[:0]
	return now, nil
}

// encodeTrans serializes translation page tvpn's slice of the L2P map into
// transBuf: 32-bit little-endian physical page addresses, one per logical
// page, InvalidPage (all-ones) for unmapped entries and padding.
func (f *FTL) encodeTrans(tvpn uint32) {
	base := int(tvpn) * f.epp
	for j := 0; j < f.epp; j++ {
		v := uint32(flash.InvalidPage)
		if lpn := base + j; lpn < f.l2p.len() {
			v = uint32(f.l2p.get(lpn))
		}
		binary.LittleEndian.PutUint32(f.transBuf[j*mapcache.EntryBytes:], v)
	}
}

// persistTransPage writes translation page tvpn's current contents to flash,
// retires the previous copy, and points the GTD at the new one.
func (f *FTL) persistTransPage(now sim.Time, tvpn uint32) (sim.Time, error) {
	f.encodeTrans(tvpn)
	p, done, err := f.programAt(now, f.transBuf, false, flash.InvalidPage, flash.PageTrans)
	if err != nil {
		return now, err
	}
	if old := f.mc.GTD(tvpn); old != flash.InvalidPage {
		f.p2t.set(int(old), noTrans)
		f.validCount[f.dev.BlockOf(old)]--
	}
	f.p2t.set(int(p), int32(tvpn))
	f.validCount[f.dev.BlockOf(p)]++
	f.mc.SetGTD(tvpn, p, f.mapSeq)
	f.mc.Clean(tvpn)
	return done, nil
}

// maybeCheckpoint runs a map checkpoint once enough programs have happened
// since the last one (Config.MapCheckpointEvery).
func (f *FTL) maybeCheckpoint(now sim.Time) (sim.Time, error) {
	if f.cfg.MapCheckpointEvery < 0 {
		return now, nil
	}
	every := int64(f.cfg.MapCheckpointEvery)
	if every == 0 {
		every = 256
	}
	if f.sinceCkpt < every {
		return now, nil
	}
	return f.FlushMap(now)
}

// FlushMap checkpoints the translation map: every queued write-back and every
// resident dirty translation page is persisted (ascending tvpn — a
// deterministic flush order), then the GTD root is committed at the current
// map sequence. After it returns, recovery needs no OOB scan at all until the
// next map mutation. A no-op when demand paging is off.
func (f *FTL) FlushMap(now sim.Time) (sim.Time, error) {
	if f.mc == nil {
		return now, nil
	}
	for _, tvpn := range f.wbPending {
		done, err := f.persistTransPage(now, tvpn)
		if err != nil {
			return now, err
		}
		now = done
	}
	f.wbPending = f.wbPending[:0]
	for _, tvpn := range f.mc.DirtyTVPNs() {
		done, err := f.persistTransPage(now, tvpn)
		if err != nil {
			return now, err
		}
		now = done
	}
	f.mc.SetCkptSeq(f.mapSeq)
	f.sinceCkpt = 0
	return now, nil
}

// CrashMap models power loss hitting the map subsystem: cached residency,
// dirty bits, and the un-issued write-back queue (controller DRAM) vanish;
// the GTD, per-page stamps, and checkpoint sequence survive, as they are
// recoverable from translation-page OOB areas and the checkpoint's GTD root
// record. A no-op when demand paging is off.
func (f *FTL) CrashMap() {
	if f.mc == nil {
		return
	}
	f.mc.Crash()
	f.wbPending = f.wbPending[:0]
}

// relocateTransPage moves the translation page stored at p out of a GC
// victim block: read the old copy (timing only — the contents are not
// needed), then re-serialize from the live map and program a fresh copy (the
// rewrite also folds in any unpersisted updates).
func (f *FTL) relocateTransPage(now sim.Time, p flash.PageAddr) (sim.Time, error) {
	tvpn := uint32(f.p2t.get(int(p)))
	done, err := f.dev.Sense(now, p, f.cfg.Flash.PageSize)
	if err != nil {
		return now, err
	}
	done, err = f.persistTransPage(done, tvpn)
	if err != nil {
		return now, err
	}
	f.remap.TransRelocations++
	return done, nil
}

// rebuildFromGTD reconstructs the L2P map from persisted translation pages
// plus a partial OOB scan of only the blocks programmed since the last
// checkpoint, instead of the full-device scan rebuildFullScan models:
//
//  1. Validate the GTD: every entry must point in-range at a page whose OOB
//     tags say "translation page tvpn". Any mismatch (torn GTD root) falls
//     back to the full scan.
//  2. Decode a candidate map from the persisted translation pages.
//  3. Partial scan: blocks whose OOB block stamp postdates the checkpoint
//     may contradict the candidate. First DROP candidate entries pointing
//     into scanned blocks (their pages may have been overwritten, relocated,
//     or trimmed since persisting), then PATCH in the live mappings the scan
//     finds there. Drop-then-patch order matters: a stale entry must not
//     survive just because its replacement lives in another scanned block.
//  4. Equivalence check (simulator-side assertion, always on): the result
//     must match the full scan's; a mismatch is counted and the full scan's
//     answer adopted.
func (f *FTL) rebuildFromGTD() int {
	info := RecoveryInfo{}
	trans := f.mc.TransPages()

	ok := true
	for tvpn := 0; tvpn < trans; tvpn++ {
		addr := f.mc.GTD(uint32(tvpn))
		if addr == flash.InvalidPage {
			continue
		}
		if int(addr) >= f.cfg.Flash.TotalPages() ||
			f.dev.TypeOf(addr) != flash.PageTrans ||
			f.p2t.get(int(addr)) != int32(tvpn) {
			ok = false
			break
		}
	}

	full := f.rebuildFullScan()
	if !ok {
		info.Fallback = true
		f.repairGTDFromOOB()
		info.Entries = f.installMap(full)
		f.lastRec = info
		return info.Entries
	}
	info.UsedGTD = true

	cand := make([]flash.PageAddr, f.l2p.len())
	for i := range cand {
		cand[i] = flash.InvalidPage
	}
	for tvpn := 0; tvpn < trans; tvpn++ {
		addr := f.mc.GTD(uint32(tvpn))
		if addr == flash.InvalidPage {
			continue
		}
		if err := f.dev.Peek(addr, f.transBuf); err != nil {
			info.Fallback = true
			f.repairGTDFromOOB()
			info.Entries = f.installMap(full)
			f.lastRec = info
			return info.Entries
		}
		info.TransPagesRead++
		base := tvpn * f.epp
		for j := 0; j < f.epp; j++ {
			lpn := base + j
			if lpn >= len(cand) {
				break
			}
			if v := binary.LittleEndian.Uint32(f.transBuf[j*mapcache.EntryBytes:]); v != uint32(flash.InvalidPage) {
				cand[lpn] = flash.PageAddr(v)
			}
		}
	}

	ckpt := f.mc.CkptSeq()
	scanned := make([]bool, f.cfg.Flash.Blocks)
	for b := range scanned {
		if f.blockStamp[b] > ckpt {
			scanned[b] = true
			info.ScannedBlocks++
		}
	}
	for lpn, p := range cand {
		if p != flash.InvalidPage && scanned[f.dev.BlockOf(p)] {
			cand[lpn] = flash.InvalidPage
		}
	}
	ppb := f.cfg.Flash.PagesPerBlock
	for b := range scanned {
		if !scanned[b] {
			continue
		}
		for i := 0; i < ppb; i++ {
			p := flash.PageAddr(b*ppb + i)
			info.ScannedPages++
			if lpn := f.p2l.get(int(p)); lpn != noLogical {
				cand[lpn] = p
			}
		}
	}

	for lpn := range cand {
		if cand[lpn] != full[lpn] {
			info.EquivMismatch = true
			cand = full
			break
		}
	}
	info.Entries = f.installMap(cand)
	f.lastRec = info
	return info.Entries
}

// repairGTDFromOOB rebuilds the GTD from the translation pages' own OOB tags
// (modeled by p2t) after a torn GTD root forced a full-scan fallback: the
// scan rediscovers every current translation-page copy, so the directory can
// be reconstituted exactly even though its root record was lost.
func (f *FTL) repairGTDFromOOB() {
	for tvpn := 0; tvpn < f.mc.TransPages(); tvpn++ {
		f.mc.SetGTD(uint32(tvpn), flash.InvalidPage, f.mc.Stamp(uint32(tvpn)))
	}
	for p := 0; p < f.p2t.len(); p++ {
		if tvpn := f.p2t.get(p); tvpn != noTrans {
			f.mc.SetGTD(uint32(tvpn), flash.PageAddr(p), f.mc.Stamp(uint32(tvpn)))
		}
	}
}

// rebuildFullScan derives the map a full OOB scan would recover: every
// programmed page's logical tag, device-order.
func (f *FTL) rebuildFullScan() []flash.PageAddr {
	m := make([]flash.PageAddr, f.l2p.len())
	for i := range m {
		m[i] = flash.InvalidPage
	}
	for p := 0; p < f.p2l.len(); p++ {
		if lpn := f.p2l.get(p); lpn != noLogical {
			m[lpn] = flash.PageAddr(p)
		}
	}
	return m
}

// installMap installs a recovered map and recounts per-block valid pages
// (data pages from p2l, translation pages from p2t), returning the number of
// live mappings.
func (f *FTL) installMap(m []flash.PageAddr) int {
	n := 0
	for lpn, p := range m {
		f.l2p.set(lpn, p)
	}
	for i := range f.validCount {
		f.validCount[i] = 0
	}
	for p := 0; p < f.p2l.len(); p++ {
		if f.p2l.get(p) == noLogical {
			continue
		}
		f.validCount[f.dev.BlockOf(flash.PageAddr(p))]++
		n++
	}
	for p := 0; p < f.p2t.len(); p++ {
		if f.p2t.get(p) != noTrans {
			f.validCount[f.dev.BlockOf(flash.PageAddr(p))]++
		}
	}
	return n
}

// MapEnabled reports whether the demand-paged translation map is active.
func (f *FTL) MapEnabled() bool { return f.mc != nil }

// MapStats returns the cached-mapping-table counters (zero when disabled).
func (f *FTL) MapStats() mapcache.Stats {
	if f.mc == nil {
		return mapcache.Stats{}
	}
	return f.mc.Stats()
}

// TransWrites returns translation-page programs issued (0 when disabled).
func (f *FTL) TransWrites() int64 { return f.transWrites }

// LastRecovery describes the most recent demand-paged RebuildL2P.
func (f *FTL) LastRecovery() RecoveryInfo { return f.lastRec }

// CorruptGTDForTesting overwrites tvpn's GTD entry, modeling a torn GTD root
// record; the next RebuildL2P must detect it and fall back to the full scan.
func (f *FTL) CorruptGTDForTesting(tvpn uint32, addr flash.PageAddr) {
	f.mc.SetGTD(tvpn, addr, f.mc.Stamp(tvpn))
}
