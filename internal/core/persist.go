package core

import (
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/vm"
)

// FlushLineCost is the CPU-side cost of issuing one clwb/clflush for a
// cache line headed to the persistent region (§3.5's flush step). The bulk
// of the persistence cost is the write-verify read ordering point.
const FlushLineCost = 100 * sim.Nanosecond

// Persist implements Hierarchy for FlatFlash: byte-granular persistence.
// The covered cache lines are flushed (their stores already traveled as
// posted MMIO writes into the battery-backed SSD-Cache), and a single
// write-verify read — the paper's mfence-equivalent (§3.5, Figure 5) —
// orders them. The whole range must lie in a persistent region.
func (s *FlatFlash) Persist(addr uint64, size int) (sim.Duration, error) {
	return s.persistFor(s.self, addr, size)
}

func (s *FlatFlash) persistFor(t *Tenant, addr uint64, size int) (sim.Duration, error) {
	if s.crashed {
		return 0, ErrCrashed
	}
	if err := s.checkCrash(t.clock.Now()); err != nil {
		return 0, err
	}
	if size <= 0 {
		return 0, nil
	}
	start := t.clock.Now()
	firstVPN := addr / uint64(s.cfg.PageSize)
	lastVPN := (addr + uint64(size) - 1) / uint64(s.cfg.PageSize)
	for vpn := firstVPN; vpn <= lastVPN; vpn++ {
		pte, _, err := t.as.Translate(vpn)
		if err != nil {
			return 0, ErrOutOfRange
		}
		if !pte.Persist {
			return 0, ErrNotPersistent
		}
	}
	lines := (int(addr%uint64(s.cfg.CacheLineSize)) + size + s.cfg.CacheLineSize - 1) / s.cfg.CacheLineSize
	s.att.Begin(t.att)
	now := t.clock.Now().Add(sim.Duration(lines) * FlushLineCost)
	s.obs.Observe(telemetry.ChargeFlush, t.track, start, now, int64(lines))
	// Write-verify read: a non-posted MMIO read that drains all posted
	// writes ahead of it in the host bridge.
	now = s.link.MMIORead(now, true)
	*s.hot.persistBarriers++
	*s.hot.persistLines += int64(lines)
	s.obs.Observe(telemetry.SpanPersist, t.track, start, now, int64(lines))
	t.clock.AdvanceTo(now)
	s.clock.AdvanceTo(t.clock.Now())
	s.att.End(t.clock.Now().Sub(start), s.clock.Now())
	return t.clock.Now().Sub(start), nil
}

// SyncPages implements Hierarchy for FlatFlash: page-granularity durable
// write. DRAM-resident pages are transferred over the link into the
// battery-backed SSD-Cache; SSD-resident dirty pages are already inside the
// persistence domain.
func (s *FlatFlash) SyncPages(addr uint64, n int) (sim.Duration, error) {
	return s.syncPagesFor(s.self, addr, n)
}

func (s *FlatFlash) syncPagesFor(t *Tenant, addr uint64, n int) (sim.Duration, error) {
	if s.crashed {
		return 0, ErrCrashed
	}
	start := t.clock.Now()
	vpn := addr / uint64(s.cfg.PageSize)
	now := t.clock.Now()
	s.att.Begin(t.att)
	for i := 0; i < n; i++ {
		// A power loss can land between page transfers: earlier pages are
		// already in the persistence domain, later ones are not.
		if err := s.checkCrash(now); err != nil {
			s.att.Abandon()
			return 0, err
		}
		pte, tLat, err := t.as.Translate(vpn + uint64(i))
		if err != nil {
			s.att.Abandon()
			return 0, ErrOutOfRange
		}
		s.obs.Observe(telemetry.ChargeSyncTranslate, t.track, now, now.Add(tLat), int64(vpn+uint64(i)))
		now = now.Add(tLat)
		if pte.Loc == vm.InDRAM && pte.Dirty {
			data, _ := s.dram.Data(pte.Frame)
			// The page DMA is on the sync's critical path; landing the page
			// in the SSD-Cache afterwards is controller-side background work.
			now = s.link.DMAPage(now)
			s.att.Suspend()
			s.writeBackToCache(now, pte.SSDPage, data)
			s.att.Resume()
			pte.Dirty = false
			*s.hot.syncPageTransfers++
		}
	}
	// One ordering read at the end.
	now = s.link.MMIORead(now, true)
	*s.hot.syncCalls++
	s.obs.Observe(telemetry.SpanSync, t.track, start, now, int64(n))
	t.clock.AdvanceTo(now)
	s.clock.AdvanceTo(t.clock.Now())
	s.att.End(t.clock.Now().Sub(start), s.clock.Now())
	return t.clock.Now().Sub(start), nil
}

// Drain implements Hierarchy: every dirty DRAM page is written back into
// the SSD-Cache and every dirty SSD-Cache page is programmed to flash.
func (s *FlatFlash) Drain() {
	s.completePromotions(s.clock.Now())
	for _, c := range s.plb.Flush(s.clock.Now()) {
		ref := s.vpnOfLPN[c.LPN]
		ref.t.as.UpdateMapping(ref.vpn, vm.PTE{Loc: vm.InDRAM, Frame: c.Frame, SSDPage: c.LPN, Dirty: c.Dirty})
		s.dram.Unpin(c.Frame)
		s.trackFrame(c.Frame, ref)
	}
	now := s.clock.Now()
	for frame, ref := range s.vpnOfFrm {
		if ref.t == nil {
			continue
		}
		pte := ref.t.as.PTEOf(ref.vpn)
		if pte.Dirty {
			data, _ := s.dram.Data(frame)
			s.writeBackToCache(now, pte.SSDPage, data)
			pte.Dirty = false
		}
	}
	for _, lpn := range s.cach.DirtyPages() {
		if data, ok := s.cach.TakeDirty(lpn); ok {
			if _, err := s.ftl.WritePage(now, lpn, data); err != nil {
				*s.hot.writebackFailures++
			}
		}
	}
	// Demand-paged map: checkpoint so every mapping is on flash (no-op in
	// the default all-in-memory mode).
	if _, err := s.ftl.FlushMap(now); err != nil {
		*s.hot.writebackFailures++
	}
}

// Crash implements Hierarchy: power failure. Host DRAM and in-flight
// promotions vanish; the battery-backed SSD-Cache and flash survive. With
// BatteryBacked=false (ablation) dirty cache contents are lost too.
//
//flatflash:coldpath
func (s *FlatFlash) Crash() {
	if s.crashed {
		return
	}
	// Any access window in flight dies with the power: its partial charges
	// are discarded rather than recorded as a completed access.
	s.att.Abandon()
	// In-flight promotions are aborted, not completed: the PLB lives in the
	// host bridge, outside the persistence domain. PTEs still point at the
	// SSD, so no mapping change is needed — just reclaim the frames.
	for _, a := range s.plb.AbortAll() {
		s.dram.Release(a.Frame)
	}
	// Every DRAM-resident page reverts to its SSD backing (whatever last
	// reached the persistence domain).
	for frame, ref := range s.vpnOfFrm {
		if ref.t == nil {
			continue
		}
		pte := ref.t.as.PTEOf(ref.vpn)
		ref.t.as.UpdateMapping(ref.vpn, vm.PTE{Loc: vm.InSSD, SSDPage: pte.SSDPage, Persist: pte.Persist})
		s.dram.Release(frame)
	}
	clear(s.vpnOfFrm)
	if s.arb != nil {
		s.arb.ResetFrames()
	}
	if s.hostCache != nil {
		s.hostCache.drop() // CPU caches are volatile
	}
	if s.cfg.BatteryBacked {
		// A drained battery (injected fault) saves only the first pages of
		// the firmware's deterministic ascending-LPN flush order.
		if keep, limited := s.faults.BatteryBudget(s.clock.Now()); limited {
			lost := s.cach.DropDirtyBeyond(keep)
			s.c.Add("battery_lost_pages", int64(lost))
		}
		// Flash keeps only what it programmed: a surviving page written in
		// place in flash's buffer takes its new bytes into the cache.
		s.cach.OwnAll()
	} else {
		for _, lpn := range s.cach.DirtyPages() {
			s.cach.Remove(lpn)
		}
	}
	// Controller SRAM is volatile: Algorithm 1's aggregates and the per-page
	// access counters do not survive, though cached data (battery) does.
	if s.pol != nil {
		s.pol.Reset()
	}
	s.cach.ResetPageCnts()
	// Demand-paged map: cached residency and the pending write-back queue
	// live in controller DRAM and die here; the GTD and checkpoint sequence
	// survive on flash.
	s.ftl.CrashMap()
	s.c.Add("crashes", 1)
	s.crashed = true
}

// Recover implements Hierarchy: power-on after a crash. The merged
// FTL/page-table mapping is rebuilt from the per-page metadata that survived
// on flash (the OOB logical-address scan), and the cross-layer invariants
// are re-checked; violations are surfaced in the counters so harnesses can
// assert on them.
func (s *FlatFlash) Recover() {
	if !s.crashed {
		return
	}
	if s.brokenRecovery {
		// Test-only sabotage: the firmware "forgets" the battery-backed
		// write buffer, losing every dirty page the crash had preserved. The
		// crash-sweep harness must flag the resulting durability violations.
		for _, lpn := range s.cach.DirtyPages() {
			s.cach.Remove(lpn)
		}
	}
	s.c.Add("recovery_l2p_entries", int64(s.ftl.RebuildL2P()))
	if s.ftl.MapEnabled() {
		rec := s.ftl.LastRecovery()
		if rec.UsedGTD {
			s.c.Add("recovery_gtd_partial", 1)
		}
		if rec.Fallback {
			s.c.Add("recovery_gtd_fallbacks", 1)
		}
		if rec.EquivMismatch {
			s.c.Add("recovery_gtd_equiv_mismatches", 1)
		}
		s.c.Add("recovery_trans_pages_read", int64(rec.TransPagesRead))
		s.c.Add("recovery_oob_pages_scanned", int64(rec.ScannedPages))
	}
	if err := s.CheckInvariants(); err != nil {
		s.c.Add("recovery_invariant_violations", 1)
		s.flight.Trigger("invariant", s.clock.Now(), 0)
	}
	s.c.Add("recoveries", 1)
	s.crashed = false
}
