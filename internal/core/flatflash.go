package core

import (
	"fmt"
	"slices"

	"flatflash/internal/dram"
	"flatflash/internal/fault"
	"flatflash/internal/ftl"
	"flatflash/internal/pcie"
	"flatflash/internal/plb"
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/ssdcache"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
	"flatflash/internal/vm"
)

// FlatFlash is the paper's system: the byte-addressable SSD is mapped into
// the unified address space, CPU loads/stores reach it in cache-line
// granularity over PCIe MMIO, and the adaptive promotion scheme moves hot
// pages to host DRAM off the critical path through the PLB.
type FlatFlash struct {
	cfg   Config
	clock *sim.Clock

	dram *dram.DRAM
	ftl  *ftl.FTL
	cach *ssdcache.Cache
	pol  promote.Promoter
	link *pcie.Link
	plb  *plb.PLB

	// self is the hierarchy's own actor (tenant 0): it shares the device
	// clock, so the Hierarchy interface and a 1-tenant consolidation run are
	// the same execution. tenants[0] == self; OpenTenant appends more.
	self    *Tenant
	tenants []*Tenant
	arb     *promote.Arbiter // nil = unpartitioned promotion

	vpnOfLPN  []pageRef      // SSD page -> owning (tenant, vpn); mmap hands out LPNs from 0
	vpnOfFrm  []pageRef      // DRAM frame -> owning (tenant, vpn); t == nil when not held
	hostCache *hostLineCache // nil unless cfg.HostCacheLines > 0 (§3.1)
	crashed   bool

	faults         *fault.Engine // nil = no injection
	brokenRecovery bool          // test-only: sabotage Recover (see BreakRecoveryForTesting)

	// Telemetry consumers (nil when detached) and rewire's sink over them.
	tr     *telemetry.Tracer
	reg    *telemetry.Registry // metrics; not a sink consumer
	att    *telemetry.Attribution
	flight *telemetry.FlightRecorder
	obs    *telemetry.Sink

	c   *stats.Counters
	hot hotCounters
	// accesses counts every tenant's Read/Write calls, for the registry's
	// accesses rate.
	accesses int64
}

// hotCounters holds pre-resolved cells (stats.Handle) for every counter the
// access path increments, resolved once at construction so the hot loop does
// one pointer add instead of a map lookup per event. Visibility follows
// stats.Handle's nonzero rule, which matches Add-created counters exactly
// because all of these increments are positive.
type hotCounters struct {
	dramReads, dramWrites         stats.Handle
	plbRedirects                  stats.Handle
	mmioReads, mmioWrites         stats.Handle
	hostcacheHits                 stats.Handle
	ssdcacheHits, ssdcacheMisses  stats.Handle
	cacheWritebacks               stats.Handle
	writebackFailures             stats.Handle
	promotions, promotionsSkipped stats.Handle
	promotionCompletions          stats.Handle
	pageMovements                 stats.Handle
	evictions, evictWritebacks    stats.Handle
	persistBarriers, persistLines stats.Handle
	syncPageTransfers, syncCalls  stats.Handle
}

func (h *hotCounters) resolve(c *stats.Counters) {
	h.dramReads = c.Handle("dram_reads")
	h.dramWrites = c.Handle("dram_writes")
	h.plbRedirects = c.Handle("plb_redirects")
	h.mmioReads = c.Handle("mmio_reads")
	h.mmioWrites = c.Handle("mmio_writes")
	h.hostcacheHits = c.Handle("hostcache_hits")
	h.ssdcacheHits = c.Handle("ssdcache_hits")
	h.ssdcacheMisses = c.Handle("ssdcache_misses")
	h.cacheWritebacks = c.Handle("cache_writebacks")
	h.writebackFailures = c.Handle("writeback_failures")
	h.promotions = c.Handle("promotions")
	h.promotionsSkipped = c.Handle("promotions_skipped")
	h.promotionCompletions = c.Handle("promotion_completions")
	h.pageMovements = c.Handle("page_movements")
	h.evictions = c.Handle("evictions")
	h.evictWritebacks = c.Handle("evict_writebacks")
	h.persistBarriers = c.Handle("persist_barriers")
	h.persistLines = c.Handle("persist_lines")
	h.syncPageTransfers = c.Handle("sync_page_transfers")
	h.syncCalls = c.Handle("sync_calls")
}

// NewFlatFlash builds the FlatFlash hierarchy from cfg.
func NewFlatFlash(cfg Config) (*FlatFlash, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	as, err := cfg.buildVM()
	if err != nil {
		return nil, err
	}
	// FlatFlash merges the FTL into the host page table, so no host-DRAM
	// metadata overhead is charged (the merged index replaces the page
	// index the baselines also keep).
	d, err := dram.New(dram.Config{
		Frames:        cfg.dramFrames(0),
		PageSize:      cfg.PageSize,
		AccessLatency: cfg.DRAMLat,
	})
	if err != nil {
		return nil, err
	}
	f, err := cfg.buildFTL()
	if err != nil {
		return nil, err
	}
	cachePages := ssdcache.SizeFor(cfg.SSDBytes, cfg.SSDCacheFraction, cfg.PageSize, cfg.SSDCacheWays)
	cach, err := ssdcache.New(ssdcache.Config{
		Pages:    cachePages,
		Ways:     cfg.SSDCacheWays,
		PageSize: cfg.PageSize,
		Policy:   cfg.SSDCachePolicy,
	})
	if err != nil {
		return nil, err
	}
	f.SetDirtySource(cach)
	cach.SetPool(f.Device().Pool())
	link, err := pcie.NewLink(cfg.PCIe)
	if err != nil {
		return nil, err
	}
	pc := cfg.PLB
	pc.PageSize = cfg.PageSize
	pc.CacheLineSize = cfg.CacheLineSize
	pl, err := plb.New(pc)
	if err != nil {
		return nil, err
	}
	var pol promote.Promoter
	switch cfg.Promotion {
	case PromoteAdaptive:
		pol = promote.New(cfg.PromoteParams)
	case PromoteFixed:
		pol = promote.NewFixed(cfg.FixedThreshold)
	case PromoteAlways:
		pol = promote.NewFixed(1)
	case PromoteNever:
		pol = nil
	default:
		return nil, fmt.Errorf("core: unknown promotion mode %d", cfg.Promotion)
	}
	s := &FlatFlash{
		cfg:       cfg,
		clock:     sim.NewClock(),
		dram:      d,
		ftl:       f,
		cach:      cach,
		pol:       pol,
		link:      link,
		plb:       pl,
		hostCache: newHostLineCache(cfg.HostCacheLines, cfg.CacheLineSize),
		c:         stats.NewCounters(),
	}
	s.hot.resolve(s.c)
	s.self = &Tenant{s: s, id: 0, as: as, clock: s.clock, track: telemetry.TrackCPU}
	s.tenants = []*Tenant{s.self}
	return s, nil
}

// Name implements Hierarchy.
func (s *FlatFlash) Name() string { return "FlatFlash" }

// SetFaults attaches a fault-injection engine, threading it to the NAND
// device (program/erase failures) and the PCIe link (dropped/torn posted
// writes); the hierarchy itself consults it for scheduled power losses and
// battery budgets. A nil engine disables injection.
func (s *FlatFlash) SetFaults(e *fault.Engine) {
	s.faults = e
	s.ftl.Device().SetFaults(e)
	s.link.SetFaults(e)
	e.SetSink(s.obs)
}

// BreakRecoveryForTesting makes Recover drop the battery-backed write
// buffer, modeling firmware that fails to preserve the persistence domain.
// It exists so the crash-sweep harness can prove it catches real durability
// bugs; production code must never enable it.
func (s *FlatFlash) BreakRecoveryForTesting(on bool) { s.brokenRecovery = on }

// checkCrash fires a scheduled power loss if one is due at now (the acting
// tenant's time): the hierarchy crashes mid-operation, at cache-line
// granularity — the atomicity unit of posted MMIO writes — rather than only
// between ops.
//
//flatflash:hotpath
func (s *FlatFlash) checkCrash(now sim.Time) error {
	if !s.faults.CrashDue(now) {
		return nil
	}
	s.Crash()
	return ErrCrashed
}

// Config returns the configuration the hierarchy was built with.
func (s *FlatFlash) Config() Config { return s.cfg }

// Now implements Hierarchy.
func (s *FlatFlash) Now() sim.Time { return s.clock.Now() }

// Instrument implements Hierarchy: the tracer records spans from every
// layer (see rewire) and the registry gains the FlatFlash gauge set sampled
// on virtual-time epochs.
func (s *FlatFlash) Instrument(tr *telemetry.Tracer, reg *telemetry.Registry) {
	s.tr = tr
	s.reg = reg
	s.rewire()
	reg.Start(s.clock.Now())
	reg.RegisterGauge("ssdcache_hit_ratio", s.cach.HitRatio)
	reg.RegisterGauge("plb_hit_ratio", s.plb.HitRatio)
	reg.RegisterGauge("dram_occupancy", func() float64 {
		frames := s.dram.Config().Frames
		if frames == 0 {
			return 0
		}
		return 1 - float64(s.dram.FreeFrames())/float64(frames)
	})
	reg.RegisterGauge("write_amplification", s.ftl.WriteAmplification)
	reg.RegisterRate("promotions", func() int64 { return s.c.Get("promotions") })
	reg.RegisterRate("accesses", func() int64 { return s.accesses })
}

// SetAttribution attaches (or with nil detaches) the latency attribution
// engine: every tenant gets an account, and every layer's intervals are
// charged to their components (see rewire). The core's window hooks go
// through the concrete *Attribution, whose methods are nil-receiver safe,
// so the disabled configuration stays zero-cost.
func (s *FlatFlash) SetAttribution(a *telemetry.Attribution) {
	s.att = a
	s.rewire()
}

// Attribution returns the attached attribution engine, or nil.
func (s *FlatFlash) Attribution() *telemetry.Attribution { return s.att }

// SetFlightRecorder attaches (or with nil detaches) the anomaly flight
// recorder. Its ring records every span the layers report (see rewire);
// fault events self-trigger it, and so do invariant-check failures after
// recovery and — when an attribution engine with an SLO is attached —
// epoch-boundary p99 violations.
func (s *FlatFlash) SetFlightRecorder(r *telemetry.FlightRecorder) {
	s.flight = r
	s.rewire()
}

// rewire rebuilds the sink over the attached consumers and hands it to
// every layer, and gives every tenant its attribution account. Each setter
// only stores its consumer and calls rewire, so the attach order does not
// matter and detaching really detaches.
func (s *FlatFlash) rewire() {
	s.obs = telemetry.NewSink(s.tr, s.flight, s.att)
	s.att.SetFlightRecorder(s.flight)
	s.link.SetSink(s.obs)
	s.plb.SetSink(s.obs)
	s.cach.SetSink(s.obs, s.clock.Now)
	s.ftl.SetSink(s.obs)
	if s.pol != nil {
		s.pol.SetSink(s.obs, s.clock.Now)
	}
	s.faults.SetSink(s.obs)
	for _, t := range s.tenants {
		t.att = s.account(t)
	}
}

// account returns t's attribution account (nil without an engine).
func (s *FlatFlash) account(t *Tenant) *telemetry.TenantAttrib {
	return s.att.Account(fmt.Sprintf("tenant%d", t.id))
}

// FlightRecorder returns the attached flight recorder, or nil.
func (s *FlatFlash) FlightRecorder() *telemetry.FlightRecorder { return s.flight }

// Advance implements Hierarchy.
func (s *FlatFlash) Advance(d sim.Duration) {
	s.clock.Advance(d)
	s.completePromotions(s.clock.Now())
}

func (s *FlatFlash) mmapFor(t *Tenant, size uint64, persist bool) (Region, error) {
	if s.crashed {
		return Region{}, ErrCrashed
	}
	pages := int((size + uint64(s.cfg.PageSize) - 1) / uint64(s.cfg.PageSize))
	if pages == 0 {
		pages = 1
	}
	if len(s.vpnOfLPN)+pages > s.ftl.LogicalPages() || len(s.vpnOfLPN)+pages > s.cfg.ssdPages() {
		return Region{}, ErrNoSSDSpace
	}
	vpn, err := t.as.Reserve(pages)
	if err != nil {
		return Region{}, ErrNoSSDSpace
	}
	s.vpnOfLPN = slices.Grow(s.vpnOfLPN, pages)
	for i := 0; i < pages; i++ {
		lpn := uint32(len(s.vpnOfLPN))
		t.as.Map(vpn+uint64(i), vm.PTE{Loc: vm.InSSD, SSDPage: lpn, Persist: persist})
		s.vpnOfLPN = append(s.vpnOfLPN, pageRef{t: t, vpn: vpn + uint64(i)})
	}
	return Region{Base: vpn * uint64(s.cfg.PageSize), Size: uint64(pages) * uint64(s.cfg.PageSize)}, nil
}

// Mmap implements Hierarchy.
func (s *FlatFlash) Mmap(size uint64) (Region, error) { return s.mmapFor(s.self, size, false) }

// MmapPersistent implements Hierarchy: pages carry the Persist PTE bit, so
// the promotion policy never moves them to volatile DRAM and stores reach
// the battery-backed SSD-Cache (§3.5).
func (s *FlatFlash) MmapPersistent(size uint64) (Region, error) {
	return s.mmapFor(s.self, size, true)
}

// Read implements Hierarchy.
func (s *FlatFlash) Read(addr uint64, buf []byte) (sim.Duration, error) {
	return s.accessFor(s.self, addr, buf, false)
}

// Write implements Hierarchy.
func (s *FlatFlash) Write(addr uint64, data []byte) (sim.Duration, error) {
	return s.accessFor(s.self, addr, data, true)
}

// accessFor services one byte-granular access on behalf of tenant t,
// advancing t's clock by the latency t's thread observes and pulling the
// device frontier (s.clock) up to it.
//
// The access is split at cache-line boundaries (lineChunk): every chunk is
// one CPU cache-line access through accessChunkFor (§3), a DRAM hit, a PLB
// redirect, or an MMIO.
//
//flatflash:hotpath
func (s *FlatFlash) accessFor(t *Tenant, addr uint64, buf []byte, isWrite bool) (sim.Duration, error) {
	if s.crashed {
		return 0, ErrCrashed
	}
	start := t.clock.Now()
	total := len(buf)
	s.att.Begin(t.att)
	for len(buf) > 0 {
		vpn, off, n := lineChunk(addr, len(buf), s.cfg.PageSize, s.cfg.CacheLineSize)
		if err := s.accessChunkFor(t, vpn, off, buf[:n], isWrite); err != nil {
			s.att.Abandon()
			return 0, err
		}
		addr += uint64(n)
		buf = buf[n:]
	}
	s.obs.Observe(telemetry.SpanAccess, t.track, start, t.clock.Now(), int64(total))
	s.clock.AdvanceTo(t.clock.Now())
	s.att.End(t.clock.Now().Sub(start), s.clock.Now())
	if s.arb != nil {
		s.arb.Tick(s.clock.Now())
	}
	s.accesses++
	s.reg.Tick(s.clock.Now())
	return t.clock.Now().Sub(start), nil
}

// accessChunkFor services one sub-cache-line access to one page of tenant
// t's address space, advancing t's clock by the latency its CPU observes.
//
//flatflash:hotpath
func (s *FlatFlash) accessChunkFor(t *Tenant, vpn uint64, off int, b []byte, isWrite bool) error {
	// Both calls are no-ops without a fault engine or an in-flight
	// promotion; the guards keep them off the steady-state DRAM hit.
	if s.faults != nil {
		if err := s.checkCrash(t.clock.Now()); err != nil {
			return err
		}
	}
	if s.plb.Pending() > 0 {
		s.completePromotions(t.clock.Now())
	}
	now := t.clock.Now()

	pte, tLat, err := t.as.Translate(vpn)
	if err != nil {
		return ErrOutOfRange
	}
	if tLat > 0 {
		s.obs.Observe(telemetry.SpanTranslate, t.track, now, now.Add(tLat), int64(vpn))
	}
	now = now.Add(tLat)

	if pte.Loc == vm.InDRAM {
		lat, derr := s.dram.Touch(pte.Frame)
		if derr != nil {
			return derr
		}
		data, _ := s.dram.Data(pte.Frame)
		if isWrite {
			copy(data[off:], b)
			pte.Dirty = true
			*s.hot.dramWrites++
		} else {
			copy(b, data[off:off+len(b)])
			*s.hot.dramReads++
		}
		t.dramHits++
		if s.arb != nil {
			s.arb.NoteHit(t.id)
		}
		s.obs.Observe(telemetry.SpanDRAM, t.track, now, now.Add(lat), int64(pte.Frame))
		t.clock.AdvanceTo(now.Add(lat))
		return nil
	}

	lpn := pte.SSDPage

	// In-flight promotion? The PLB redirects (Figure 4).
	switch s.plb.Access(now, lpn, off, b, isWrite) {
	case plb.RouteDRAM:
		*s.hot.plbRedirects++
		s.obs.Observe(telemetry.SpanPLBRedirect, t.track, now, now.Add(s.cfg.DRAMLat), int64(lpn))
		t.clock.AdvanceTo(now.Add(s.cfg.DRAMLat))
		return nil
	case plb.RouteSSD:
		done := s.link.MMIORead(now, pte.Persist)
		*s.hot.mmioReads++
		t.clock.AdvanceTo(done)
		return nil
	}

	line := off / s.cfg.CacheLineSize
	lineStart := line * s.cfg.CacheLineSize

	// Direct byte-granular SSD access over PCIe MMIO.
	if isWrite {
		hostDone, outcome := s.link.MMIOWriteChecked(now, pte.Persist)
		*s.hot.mmioWrites++
		if outcome == fault.WriteDropped {
			// The posted packet was lost in the fabric: the SSD never sees
			// the store. Posted writes are fire-and-forget, so the CPU
			// proceeds unaware; only its own coherent cache holds the data.
			if s.hostCache != nil {
				s.hostCache.update(lpn, line, off-lineStart, b)
			}
			t.clock.AdvanceTo(hostDone)
			return nil
		}
		// The posted write completes at hostDone regardless of the SSD-side
		// fill below: that work is off the host's critical path, so its
		// charges go to the background account.
		s.att.Suspend()
		e, _, hit := s.ensureCached(now, lpn)
		if e == nil {
			s.att.Resume()
			return ErrNoSSDSpace
		}
		w := b
		if outcome == fault.WriteTorn {
			// Torn packet: only the first half of the payload lands.
			w = b[:len(b)/2]
		}
		s.cach.Write(e, off, w)
		if s.hostCache != nil {
			// Write-through: keep any coherently cached copy of the line
			// up to date (§3.1's coherent interconnect).
			s.hostCache.update(lpn, line, off-lineStart, b)
		}
		s.countHit(hit)
		s.maybePromote(t, now, vpn, lpn, pte, e)
		s.att.Resume()
		t.clock.AdvanceTo(hostDone)
		return nil
	}
	// With a coherent interconnect, the CPU may have the line cached: no
	// MMIO round trip, and the SSD never sees the access.
	if s.hostCache != nil {
		if data, ok := s.hostCache.lookup(lpn, line); ok {
			copy(b, data[off-lineStart:off-lineStart+len(b)])
			*s.hot.hostcacheHits++
			s.obs.Observe(telemetry.SpanHostCacheHit, t.track, now, now.Add(s.cfg.HostCacheLatency), int64(lpn))
			t.clock.AdvanceTo(now.Add(s.cfg.HostCacheLatency))
			return nil
		}
	}
	e, ready, hit := s.ensureCached(now, lpn)
	if e == nil {
		return ErrNoSSDSpace
	}
	done := s.link.MMIORead(ready, pte.Persist)
	copy(b, e.Data[off:off+len(b)])
	if s.hostCache != nil && !pte.Persist {
		s.hostCache.fill(lpn, line, e.Data[lineStart:lineStart+s.cfg.CacheLineSize])
	}
	*s.hot.mmioReads++
	s.countHit(hit)
	// Promotion kickoff is off the critical path (the no-PLB stall ablation
	// charges the tenant's account directly, bypassing the suspension).
	s.att.Suspend()
	s.maybePromote(t, now, vpn, lpn, pte, e)
	s.att.Resume()
	t.clock.AdvanceTo(done)
	return nil
}

//flatflash:hotpath
func (s *FlatFlash) countHit(hit bool) {
	if hit {
		*s.hot.ssdcacheHits++
	} else {
		*s.hot.ssdcacheMisses++
	}
}

// ensureCached makes page lpn resident in the SSD-Cache, filling from
// flash on a miss (and writing back a dirty victim to flash, off the host's
// critical path). It returns the entry and the time the data is available.
// A miss fill shares flash's buffer for the page, so a caller writes into
// the entry only through Cache.Write or after Own.
//
//flatflash:hotpath
func (s *FlatFlash) ensureCached(now sim.Time, lpn uint32) (*ssdcache.Entry, sim.Time, bool) {
	if e, ok := s.cach.Lookup(lpn); ok {
		s.obs.Observe(telemetry.SpanCacheProbe, telemetry.TrackSSD, now, now.Add(ssdcache.AccessCost), int64(lpn))
		return e, now.Add(ssdcache.AccessCost), true
	}
	// The entry shares flash's buffer: a clean fill copies nothing.
	view, own, done, err := s.ftl.ReadPageShared(now, lpn)
	if err != nil {
		return nil, now, false
	}
	// Miss fill: the span shows the whole fill on the SSD track; the
	// nested flash_read span comes from the FTL.
	s.obs.Observe(telemetry.SpanCacheProbe, telemetry.TrackSSD, now, done, int64(lpn))
	e, victim, evicted := s.cach.InsertShared(lpn, view, own)
	if evicted {
		if s.pol != nil {
			s.pol.AdjustCnt(victim.PageCnt)
		}
		if victim.Dirty {
			// Flash write happens inside the SSD; it occupies the device
			// but the host does not wait for it — attribution charges go
			// to the background account.
			s.att.Suspend()
			s.writeBackVictim(done, victim)
			s.att.Resume()
		}
	}
	return e, done, false
}

// writeBackVictim programs a dirty victim to flash without a copy: an owned
// victim hands flash its buffer, and an in-place victim's bytes, already in
// flash's buffer for the page, move to the new page. The cache then settles
// the victim.
//
//flatflash:hotpath
func (s *FlatFlash) writeBackVictim(now sim.Time, victim ssdcache.Victim) {
	var data []byte
	if !victim.InPlace() {
		data = victim.Data
	}
	programmed, _, err := s.ftl.WriteBack(now, victim.LPN, data)
	s.cach.Settle(victim, programmed)
	if err != nil {
		// Device full; the data stays only in the cache copy we just
		// dropped — surface loudly in counters.
		*s.hot.writebackFailures++
	}
	*s.hot.cacheWritebacks++
}

// maybePromote runs Algorithm 1's UPDATE for tenant t's access and starts an
// off-critical-path promotion when the policy fires (§3.3, §3.4). Pages
// with the Persist bit bypass the policy entirely (§3.5).
//
//flatflash:coldpath
func (s *FlatFlash) maybePromote(t *Tenant, now sim.Time, vpn uint64, lpn uint32, pte *vm.PTE, e *ssdcache.Entry) {
	if pte.Persist || s.pol == nil {
		return
	}
	cnt := s.cach.Touch(e)
	if !s.pol.Update(cnt) {
		return
	}
	if s.plb.InFlight(lpn) {
		return
	}
	s.obs.Observe(telemetry.EvPromoteTrigger, telemetry.TrackSSD, now, now, int64(lpn))
	if !s.cfg.UsePLB {
		// Ablation: no PLB means the CPU stalls for the whole promotion.
		s.promoteStalling(t, now, vpn, lpn)
		return
	}
	frame, ok := s.allocFrameFor(t, now)
	if !ok {
		*s.hot.promotionsSkipped++
		return
	}
	v, ok := s.cach.Remove(lpn)
	if !ok {
		s.dram.Release(frame)
		return
	}
	s.pol.AdjustCnt(v.PageCnt)
	dst, _ := s.dram.Data(frame)
	s.dram.Pin(frame)
	if err := s.plb.Start(now, lpn, frame, v.Data, dst, v.Dirty); err != nil {
		// PLB full: abandon the promotion, put the page back in the cache.
		s.dram.Release(frame)
		s.cach.Insert(lpn, v.Data, v.Dirty)
		*s.hot.promotionsSkipped++
		return
	}
	s.trackFrame(frame, pageRef{t: t, vpn: vpn})
	if s.hostCache != nil {
		// The page's authoritative copy is moving to DRAM; coherence
		// invalidates the CPU's cached lines for it.
		s.hostCache.invalidatePage(lpn, s.cfg.PageSize/s.cfg.CacheLineSize)
	}
	t.promotions++
	*s.hot.promotions++
	*s.hot.pageMovements++
	s.link.DMAPage(now) // the promotion's page transfer occupies the link
}

// promoteStalling is the no-PLB ablation: the promotion happens on the
// calling tenant's critical path.
func (s *FlatFlash) promoteStalling(t *Tenant, now sim.Time, vpn uint64, lpn uint32) {
	frame, ok := s.allocFrameFor(t, now)
	if !ok {
		*s.hot.promotionsSkipped++
		return
	}
	v, ok := s.cach.Remove(lpn)
	if !ok {
		s.dram.Release(frame)
		return
	}
	s.pol.AdjustCnt(v.PageCnt)
	if s.hostCache != nil {
		s.hostCache.invalidatePage(lpn, s.cfg.PageSize/s.cfg.CacheLineSize)
	}
	dst, _ := s.dram.Data(frame)
	copy(dst, v.Data)
	s.link.DMAPage(now)
	upd := t.as.UpdateMapping(vpn, vm.PTE{Loc: vm.InDRAM, Frame: frame, SSDPage: lpn, Dirty: v.Dirty})
	s.trackFrame(frame, pageRef{t: t, vpn: vpn})
	t.promotions++
	*s.hot.promotions++
	*s.hot.pageMovements++
	// CPU waits for copy + mapping update. The stall is on the critical path
	// even though promotion kickoff runs under attribution suspension, so it
	// charges the tenant's account directly rather than through the sink.
	stall := s.cfg.PLB.PromotionLatency + upd
	s.obs.Observe(telemetry.SpanPromotionStall, t.track, now, now.Add(stall), int64(lpn))
	t.att.Charge(telemetry.CompPromote, stall)
	t.clock.AdvanceTo(now.Add(stall))
}

// allocFrameFor returns a free DRAM frame for tenant t, evicting the LRU
// page if needed. When a DRAM-budget arbiter is attached and t is at or over
// its budget, t recycles its own least-recently-used frame instead of taking
// one from the shared pool or a neighbor. Eviction writes a dirty page back
// to the SSD (page-granularity, §3.3) and updates its PTE/TLB; this is
// background work and does not advance the actor clock.
func (s *FlatFlash) allocFrameFor(t *Tenant, now sim.Time) (int, bool) {
	if s.arb != nil && !s.arb.Allow(t.id) {
		victim, ok := s.dram.EvictCandidateWhere(func(f int) bool {
			return s.ownerOf(f) == t
		})
		if !ok {
			return -1, false
		}
		s.evictFrame(victim, now)
		f, err := s.dram.AllocUnzeroed()
		if err != nil {
			return -1, false
		}
		return f, true
	}
	if f, err := s.dram.AllocUnzeroed(); err == nil {
		return f, true
	}
	victim, ok := s.dram.EvictCandidate()
	if !ok || s.ownerOf(victim) == nil {
		return -1, false
	}
	s.evictFrame(victim, now)
	f, err := s.dram.AllocUnzeroed()
	if err != nil {
		return -1, false
	}
	return f, true
}

// evictFrame writes the page in frame back to the SSD if dirty, remaps the
// owning tenant's PTE to the SSD, and frees the frame.
func (s *FlatFlash) evictFrame(frame int, now sim.Time) {
	ref := s.vpnOfFrm[frame]
	pte := ref.t.as.PTEOf(ref.vpn)
	lpn := pte.SSDPage
	if pte.Dirty {
		data, _ := s.dram.Data(frame)
		s.link.DMAPage(now)
		s.writeBackToCache(now, lpn, data)
		*s.hot.evictWritebacks++
		*s.hot.pageMovements++
	}
	ref.t.as.UpdateMapping(ref.vpn, vm.PTE{Loc: vm.InSSD, SSDPage: lpn, Persist: pte.Persist})
	*s.hot.evictions++
	s.untrackFrame(frame)
	s.dram.Release(frame)
}

// trackFrame records frame as held by ref's tenant, keeping the arbiter's
// per-tenant holdings in step. Re-tracking the same frame (promotion start
// then completion) is idempotent.
//
//flatflash:hotpath
func (s *FlatFlash) trackFrame(frame int, ref pageRef) {
	if frame >= len(s.vpnOfFrm) {
		s.coverFrame(frame)
	}
	if old := s.vpnOfFrm[frame]; old.t != nil && s.arb != nil {
		s.arb.NoteFrame(old.t.id, -1)
	}
	s.vpnOfFrm[frame] = ref
	if s.arb != nil {
		s.arb.NoteFrame(ref.t.id, +1)
	}
}

// ownerOf returns the tenant whose page frame holds, or nil.
func (s *FlatFlash) ownerOf(frame int) *Tenant {
	if frame < len(s.vpnOfFrm) {
		return s.vpnOfFrm[frame].t
	}
	return nil
}

// coverFrame grows the frame table to hold frame, the first time DRAM hands
// it out.
//
//flatflash:coldpath
func (s *FlatFlash) coverFrame(frame int) {
	s.vpnOfFrm = append(s.vpnOfFrm, make([]pageRef, frame+1-len(s.vpnOfFrm))...)
}

// untrackFrame forgets frame's owner and releases its arbiter holding.
func (s *FlatFlash) untrackFrame(frame int) {
	if ref := s.vpnOfFrm[frame]; ref.t != nil {
		if s.arb != nil {
			s.arb.NoteFrame(ref.t.id, -1)
		}
		s.vpnOfFrm[frame] = pageRef{}
	}
}

// writeBackToCache lands an evicted page in the SSD-Cache dirty (the
// battery-backed cache absorbs it; flash write deferred to GC/eviction).
func (s *FlatFlash) writeBackToCache(now sim.Time, lpn uint32, data []byte) {
	if e, ok := s.cach.Lookup(lpn); ok {
		s.cach.Own(e)
		copy(e.Data, data)
		e.Dirty = true
		return
	}
	_, victim, evicted := s.cach.Insert(lpn, data, true)
	if evicted {
		if s.pol != nil {
			s.pol.AdjustCnt(victim.PageCnt)
		}
		if victim.Dirty {
			s.writeBackVictim(now, victim)
		}
	}
}

// completePromotions finalizes in-flight promotions whose deadline passed by
// now (the acting tenant's time, or the device frontier): the PTE now points
// at the DRAM frame and the TLB entry is refreshed. The PTE/TLB update cost
// is charged off the critical path (counted, not added to the actor clock),
// as §3.3 argues it is negligible next to SSD access.
//
//flatflash:hotpath
func (s *FlatFlash) completePromotions(now sim.Time) {
	for _, c := range s.plb.Expired(now) {
		ref := s.vpnOfLPN[c.LPN]
		ref.t.as.UpdateMapping(ref.vpn, vm.PTE{Loc: vm.InDRAM, Frame: c.Frame, SSDPage: c.LPN, Dirty: c.Dirty})
		s.dram.Unpin(c.Frame)
		s.trackFrame(c.Frame, ref)
		*s.hot.promotionCompletions++
	}
}

// substrateCounters adds the flash, GC, demand-map and PCIe counters every
// hierarchy reports to out. The map counters exist only when the FTL pages
// its translation map on demand, so default-config reports stay unchanged.
// badBlocks adds ftl_bad_blocks, which only FlatFlash reports: fault
// injection, the one way to grow it, targets FlatFlash alone.
func substrateCounters(out *stats.Counters, f *ftl.FTL, link *pcie.Link, cfg Config, badBlocks bool) {
	host, progs := f.Writes()
	out.Add("flash_host_writes", host)
	out.Add("flash_programs", progs)
	out.Add("flash_reads", f.Device().Reads())
	erases, maxWear, _ := f.Device().Wear()
	out.Add("flash_erases", erases)
	out.Add("flash_max_block_wear", maxWear)
	rm := f.Remap()
	out.Add("gc_runs", rm.GCRuns)
	out.Add("gc_relocations", rm.Relocations)
	out.Add("gc_remap_interrupts", rm.BatchInterrupts)
	if badBlocks {
		out.Add("ftl_bad_blocks", rm.BadBlocks)
	}
	if f.MapEnabled() {
		ms := f.MapStats()
		out.Add("map_cache_hits", ms.Hits)
		out.Add("map_cache_misses", ms.Misses)
		out.Add("map_fetches", ms.Fetches)
		out.Add("map_cold_fills", ms.ColdFills)
		out.Add("map_evictions", ms.Evictions)
		out.Add("map_dirty_evictions", ms.DirtyEvs)
		out.Add("flash_trans_programs", f.TransWrites())
		_, transReads, _, _ := f.Device().WearByType()
		out.Add("flash_trans_reads", transReads)
		if rm.TransRelocations > 0 {
			out.Add("gc_trans_relocations", rm.TransRelocations)
		}
	}
	r, w, d, tagged := link.Stats()
	out.Add("pcie_mmio_reads", r)
	out.Add("pcie_mmio_writes", w)
	out.Add("pcie_dma_pages", d)
	out.Add("pcie_persist_tagged", tagged)
	out.Add("pcie_traffic_bytes", link.TrafficBytes(cfg.CacheLineSize, cfg.PageSize))
}

// Counters implements Hierarchy: the event counters plus substrate stats.
func (s *FlatFlash) Counters() *stats.Counters {
	out := stats.NewCounters()
	out.Merge(s.c)
	hits, misses, evict, dirty := s.cach.Stats()
	out.Add("ssdcache_raw_hits", hits)
	out.Add("ssdcache_raw_misses", misses)
	out.Add("ssdcache_evictions", evict)
	out.Add("ssdcache_dirty_evictions", dirty)
	substrateCounters(out, s.ftl, s.link, s.cfg, true)
	for _, t := range s.tenants {
		th, tm, sd := t.as.Stats()
		out.Add("tlb_hits", th)
		out.Add("tlb_misses", tm)
		out.Add("tlb_shootdowns", sd)
	}
	if s.pol != nil {
		out.Add("policy_promotions", s.pol.Promotions())
		out.Add("policy_threshold", int64(s.pol.Threshold()))
	}
	if s.att != nil && s.att.SLO() > 0 {
		var viol, burn, bad int64
		for _, acct := range s.att.Accounts() {
			viol += acct.Violations()
			burn += acct.BurnNs()
			bad += acct.BadEpochs()
		}
		out.Add("slo_violations", viol)
		out.Add("slo_burn_ns", burn)
		out.Add("slo_bad_epochs", bad)
	}
	if s.flight != nil {
		out.Add("flight_triggers", s.flight.Triggers())
	}
	if s.faults != nil {
		fs := s.faults.Stats()
		out.Add("fault_crashes", fs.CrashesFired)
		out.Add("fault_program_failures", fs.ProgramFailures)
		out.Add("fault_erase_failures", fs.EraseFailures)
		out.Add("fault_mmio_dropped", fs.MMIODropped)
		out.Add("fault_mmio_torn", fs.MMIOTorn)
		out.Add("fault_battery_truncations", fs.BatteryTruncated)
		dropped, torn := s.link.FaultStats()
		out.Add("pcie_mmio_dropped", dropped)
		out.Add("pcie_mmio_torn", torn)
		out.Add("plb_aborted_promotions", s.plb.AbortedCount())
	}
	return out
}

// CheckInvariants verifies cross-layer agreement after recovery: every
// mapped SSD page's PTE points back at it (directly, or through a DRAM frame
// the promotion bookkeeping also knows), every shared SSD-Cache entry is
// clean and views the very buffer its page's current flash copy holds (the
// FTL's zero page if unmapped), every in-place entry is dirty, holds that
// very buffer too and keeps a well-formed undo log (distinct in-page lines,
// at most the log's capacity), and the FTL's L2P/P2L maps are mutual
// inverses with consistent per-block valid counts.
func (s *FlatFlash) CheckInvariants() error {
	for i, ref := range s.vpnOfLPN {
		lpn := uint32(i)
		pte := ref.t.as.PTEOf(ref.vpn)
		if pte.SSDPage != lpn {
			return fmt.Errorf("core: vpn %d PTE names lpn %d, want %d", ref.vpn, pte.SSDPage, lpn)
		}
		if pte.Loc == vm.InDRAM {
			if pte.Frame >= len(s.vpnOfFrm) || s.vpnOfFrm[pte.Frame] != ref {
				return fmt.Errorf("core: vpn %d PTE names frame %d not mapped back to it", ref.vpn, pte.Frame)
			}
		}
	}
	if err := s.cach.Each(func(e *ssdcache.Entry) error {
		if !e.Shared() && !e.InPlace() {
			return nil
		}
		if e.Dirty != e.InPlace() {
			return fmt.Errorf("core: SSD-Cache entry for lpn %d holds flash's buffer with dirty %v, in place %v", e.LPN, e.Dirty, e.InPlace())
		}
		if cur := s.ftl.PageView(e.LPN); len(cur) == 0 || &cur[0] != &e.Data[0] {
			return fmt.Errorf("core: SSD-Cache entry for lpn %d no longer holds its flash page's buffer", e.LPN)
		}
		return e.CheckUndo()
	}); err != nil {
		return err
	}
	return s.ftl.CheckConsistency()
}

// HitRatio returns the combined service ratio from fast paths: fraction of
// SSD accesses that hit the SSD-Cache, for Figure 12's hit-ratio series.
func (s *FlatFlash) HitRatio() float64 { return s.cach.HitRatio() }

// WriteAmplification exposes the FTL's WA for lifetime comparisons.
func (s *FlatFlash) WriteAmplification() float64 { return s.ftl.WriteAmplification() }
