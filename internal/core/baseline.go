package core

import (
	"flatflash/internal/dram"
	"flatflash/internal/ftl"
	"flatflash/internal/pcie"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
	"flatflash/internal/vm"
)

// pagingHierarchy is the shared machinery of the paper's two comparison
// systems. Both treat the SSD as a page-granularity device: any access to
// an SSD-resident page takes a page fault that migrates the whole page into
// host DRAM before the access proceeds (Figure 1a / Figure 3a).
//
//   - UnifiedMMap (FlashMap, [27]): unified address translation — one
//     merged index, no block storage stack on the fault path, small
//     metadata footprint in DRAM.
//   - TraditionalStack: separate memory/storage/FTL translation layers —
//     the fault path crosses the block storage stack, and the extra
//     per-layer indexes consume host DRAM (fewer frames for the page
//     cache).
type pagingHierarchy struct {
	name  string
	cfg   Config
	clock *sim.Clock

	as   *vm.AddressSpace
	dram *dram.DRAM
	ftl  *ftl.FTL
	link *pcie.Link

	faultCost sim.Duration // trap + handler (+ storage stack for Traditional)
	syncCost  sim.Duration // software cost of one durable block write

	nextLPN  uint32
	vpnOfFrm map[int]uint64
	crashed  bool

	c   *stats.Counters
	hot baselineHot

	accesses int64           // Read/Write calls, for the registry's accesses rate
	obs      *telemetry.Sink // the tracer's sink; nil when detached
	reg      *telemetry.Registry
}

// baselineHot pre-resolves the counters the baselines' fault-and-access loop
// increments (see hotCounters; same stats.Handle visibility contract).
type baselineHot struct {
	faults, pageMovements      stats.Handle
	dramReads, dramWrites      stats.Handle
	evictions, evictWritebacks stats.Handle
	writebackFailures          stats.Handle
	syncPageWrites, syncCalls  stats.Handle
}

func (h *baselineHot) resolve(c *stats.Counters) {
	h.faults = c.Handle("faults")
	h.pageMovements = c.Handle("page_movements")
	h.dramReads = c.Handle("dram_reads")
	h.dramWrites = c.Handle("dram_writes")
	h.evictions = c.Handle("evictions")
	h.evictWritebacks = c.Handle("evict_writebacks")
	h.writebackFailures = c.Handle("writeback_failures")
	h.syncPageWrites = c.Handle("sync_page_writes")
	h.syncCalls = c.Handle("sync_calls")
}

// NewUnifiedMMap builds the FlashMap-style baseline.
func NewUnifiedMMap(cfg Config) (Hierarchy, error) {
	return newPaging(cfg, "UnifiedMMap", cfg.MetaOverheadUnified,
		cfg.FaultOverhead, cfg.FaultOverhead)
}

// NewTraditionalStack builds the conventional mmap + block-I/O baseline.
func NewTraditionalStack(cfg Config) (Hierarchy, error) {
	return newPaging(cfg, "TraditionalStack", cfg.MetaOverheadTraditional,
		cfg.FaultOverhead+cfg.StackOverhead, cfg.StackOverhead)
}

func newPaging(cfg Config, name string, metaOverhead float64, faultCost, syncCost sim.Duration) (Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	as, err := cfg.buildVM()
	if err != nil {
		return nil, err
	}
	d, err := dram.New(dram.Config{
		Frames:        cfg.dramFrames(metaOverhead),
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
	link, err := pcie.NewLink(cfg.PCIe)
	if err != nil {
		return nil, err
	}
	p := &pagingHierarchy{
		name:      name,
		cfg:       cfg,
		clock:     sim.NewClock(),
		as:        as,
		dram:      d,
		ftl:       f,
		link:      link,
		faultCost: faultCost,
		syncCost:  syncCost,
		vpnOfFrm:  make(map[int]uint64),
		c:         stats.NewCounters(),
	}
	p.hot.resolve(p.c)
	return p, nil
}

// Name implements Hierarchy.
func (p *pagingHierarchy) Name() string { return p.name }

// Instrument implements Hierarchy: hands the tracer's sink to the PCIe link
// and FTL — a nil tracer detaches them — and registers the baseline's gauges
// with reg. Both arguments may be nil.
func (p *pagingHierarchy) Instrument(tr *telemetry.Tracer, reg *telemetry.Registry) {
	p.obs = telemetry.NewSink(tr, nil, nil)
	p.reg = reg
	p.link.SetSink(p.obs)
	p.ftl.SetSink(p.obs)
	reg.Start(p.clock.Now())
	reg.RegisterGauge("dram_occupancy", func() float64 {
		total := p.dram.Config().Frames
		if total == 0 {
			return 0
		}
		return 1 - float64(p.dram.FreeFrames())/float64(total)
	})
	reg.RegisterGauge("write_amplification", p.ftl.WriteAmplification)
	reg.RegisterRate("faults", func() int64 { return p.c.Get("faults") })
	reg.RegisterRate("accesses", func() int64 { return p.accesses })
}

// Now implements Hierarchy.
func (p *pagingHierarchy) Now() sim.Time { return p.clock.Now() }

// Advance implements Hierarchy.
func (p *pagingHierarchy) Advance(d sim.Duration) { p.clock.Advance(d) }

// Mmap implements Hierarchy.
func (p *pagingHierarchy) Mmap(size uint64) (Region, error) { return p.mmap(size) }

// MmapPersistent implements Hierarchy. The paging systems have no
// byte-granular persistence: the region is ordinary mapped memory whose
// durability is obtained through SyncPages (block writes), which is the
// block-interface design the paper's persistence experiments compare
// against.
func (p *pagingHierarchy) MmapPersistent(size uint64) (Region, error) { return p.mmap(size) }

func (p *pagingHierarchy) mmap(size uint64) (Region, error) {
	if p.crashed {
		return Region{}, ErrCrashed
	}
	pages := int((size + uint64(p.cfg.PageSize) - 1) / uint64(p.cfg.PageSize))
	if pages == 0 {
		pages = 1
	}
	if int(p.nextLPN)+pages > p.ftl.LogicalPages() || int(p.nextLPN)+pages > p.cfg.ssdPages() {
		return Region{}, ErrNoSSDSpace
	}
	vpn, err := p.as.Reserve(pages)
	if err != nil {
		return Region{}, ErrNoSSDSpace
	}
	for i := 0; i < pages; i++ {
		lpn := p.nextLPN
		p.nextLPN++
		p.as.Map(vpn+uint64(i), vm.PTE{Loc: vm.InSSD, SSDPage: lpn})
	}
	return Region{Base: vpn * uint64(p.cfg.PageSize), Size: uint64(pages) * uint64(p.cfg.PageSize)}, nil
}

// Read implements Hierarchy.
func (p *pagingHierarchy) Read(addr uint64, buf []byte) (sim.Duration, error) {
	return p.access(addr, buf, false)
}

// Write implements Hierarchy.
func (p *pagingHierarchy) Write(addr uint64, data []byte) (sim.Duration, error) {
	return p.access(addr, data, true)
}

func (p *pagingHierarchy) access(addr uint64, buf []byte, isWrite bool) (sim.Duration, error) {
	if p.crashed {
		return 0, ErrCrashed
	}
	start := p.clock.Now()
	total := len(buf)
	for len(buf) > 0 {
		vpn, off, n := lineChunk(addr, len(buf), p.cfg.PageSize, p.cfg.CacheLineSize)
		if err := p.accessChunk(vpn, off, buf[:n], isWrite); err != nil {
			return 0, err
		}
		addr += uint64(n)
		buf = buf[n:]
	}
	p.obs.Observe(telemetry.SpanAccess, telemetry.TrackCPU, start, p.clock.Now(), int64(total))
	p.accesses++
	p.reg.Tick(p.clock.Now())
	return p.clock.Now().Sub(start), nil
}

func (p *pagingHierarchy) accessChunk(vpn uint64, off int, b []byte, isWrite bool) error {
	now := p.clock.Now()
	pte, tLat, err := p.as.Translate(vpn)
	if err != nil {
		return ErrOutOfRange
	}
	if tLat > 0 {
		p.obs.Observe(telemetry.SpanTranslate, telemetry.TrackCPU, now, now.Add(tLat), int64(vpn))
	}
	now = now.Add(tLat)

	if pte.Loc == vm.InSSD {
		// Page fault: migrate the whole page SSD -> DRAM (Figure 1a). The
		// application stalls for the entire handler.
		faultStart := now
		now = now.Add(p.faultCost)
		frame, fNow, ok := p.allocFrame(now)
		if !ok {
			return ErrNoSSDSpace
		}
		now = fNow
		data, _ := p.dram.Data(frame)
		done, rerr := p.ftl.ReadPage(now, pte.SSDPage, data)
		if rerr != nil {
			// The frame is not mapped yet: hand it back, or a later
			// eviction would pick an untracked frame.
			p.dram.Release(frame)
			return rerr
		}
		done = p.link.DMAPage(done)
		upd := p.as.UpdateMapping(vpn, vm.PTE{Loc: vm.InDRAM, Frame: frame, SSDPage: pte.SSDPage})
		p.vpnOfFrm[frame] = vpn
		now = done.Add(upd)
		*p.hot.faults++
		*p.hot.pageMovements++
		p.obs.Observe(telemetry.SpanPageFault, telemetry.TrackCPU, faultStart, now, int64(pte.SSDPage))
		pte = p.as.PTEOf(vpn)
	}

	lat, derr := p.dram.Touch(pte.Frame)
	if derr != nil {
		return derr
	}
	data, _ := p.dram.Data(pte.Frame)
	if isWrite {
		copy(data[off:], b)
		pte.Dirty = true
		*p.hot.dramWrites++
	} else {
		copy(b, data[off:off+len(b)])
		*p.hot.dramReads++
	}
	p.obs.Observe(telemetry.SpanDRAM, telemetry.TrackCPU, now, now.Add(lat), int64(pte.Frame))
	p.clock.AdvanceTo(now.Add(lat))
	return nil
}

// allocFrame returns a free frame, evicting the LRU page when DRAM is full.
// A dirty victim is written back to flash; the write occupies the device
// asynchronously (kswapd-style), but the fault still pays the DMA of the
// outbound page on a loaded system — modeled by the link occupancy.
func (p *pagingHierarchy) allocFrame(now sim.Time) (int, sim.Time, bool) {
	if f, err := p.dram.Alloc(); err == nil {
		return f, now, true
	}
	victim, ok := p.dram.EvictCandidate()
	if !ok {
		return -1, now, false
	}
	vpn := p.vpnOfFrm[victim]
	pte := p.as.PTEOf(vpn)
	if pte.Dirty {
		// Direct reclaim: the faulting thread waits for the outbound DMA
		// (the frame is reusable once the data reaches the device's write
		// buffer); the flash program completes asynchronously.
		data, _ := p.dram.Data(victim)
		now = p.link.DMAPage(now)
		if _, err := p.ftl.WritePage(now, pte.SSDPage, data); err != nil {
			*p.hot.writebackFailures++
		}
		*p.hot.evictWritebacks++
		*p.hot.pageMovements++
	}
	// Unmapping the victim requires a synchronous TLB shootdown before its
	// frame can be reused; the faulting thread waits for it.
	upd := p.as.UpdateMapping(vpn, vm.PTE{Loc: vm.InSSD, SSDPage: pte.SSDPage})
	now = now.Add(upd)
	*p.hot.evictions++
	delete(p.vpnOfFrm, victim)
	p.dram.Release(victim)
	f, err := p.dram.Alloc()
	if err != nil {
		return -1, now, false
	}
	return f, now, true
}

// Persist implements Hierarchy: block-interface persistence. Every page
// touched by the byte range is durably written in page granularity — the
// write amplification the paper's §3.5 case studies eliminate.
func (p *pagingHierarchy) Persist(addr uint64, size int) (sim.Duration, error) {
	if size <= 0 {
		return 0, nil
	}
	first := addr / uint64(p.cfg.PageSize)
	last := (addr + uint64(size) - 1) / uint64(p.cfg.PageSize)
	return p.SyncPages(first*uint64(p.cfg.PageSize), int(last-first+1))
}

// SyncPages implements Hierarchy: fsync-like durable page writes through
// the storage interface. The caller stalls until the flash program
// completes (that is what durability means on a block device).
func (p *pagingHierarchy) SyncPages(addr uint64, n int) (sim.Duration, error) {
	if p.crashed {
		return 0, ErrCrashed
	}
	start := p.clock.Now()
	vpn := addr / uint64(p.cfg.PageSize)
	// One pass through the storage software stack covers the whole batch
	// (a single bio); the page writes are issued back-to-back and the
	// caller waits for the last completion. Pages in the same flash block
	// share a channel, so contiguous batches still serialize there.
	now := p.clock.Now().Add(p.syncCost)
	last := now
	for i := 0; i < n; i++ {
		pte, tLat, err := p.as.Translate(vpn + uint64(i))
		if err != nil {
			return 0, ErrOutOfRange
		}
		now = now.Add(tLat)
		var data []byte
		if pte.Loc == vm.InDRAM {
			data, _ = p.dram.Data(pte.Frame)
			pte.Dirty = false
		} else {
			// Page never faulted in: it is already on flash.
			continue
		}
		issued := p.link.DMAPage(now)
		done, werr := p.ftl.WritePage(issued, pte.SSDPage, data)
		if werr != nil {
			return 0, werr
		}
		if done > last {
			last = done
		}
		*p.hot.syncPageWrites++
	}
	if last > now {
		now = last
	}
	*p.hot.syncCalls++
	p.obs.Observe(telemetry.SpanSync, telemetry.TrackCPU, start, now, int64(n))
	p.clock.AdvanceTo(now)
	return p.clock.Now().Sub(start), nil
}

// Drain implements Hierarchy: all dirty DRAM pages are written to flash.
func (p *pagingHierarchy) Drain() {
	now := p.clock.Now()
	for _, frame := range sortedFrames(p.vpnOfFrm) {
		vpn := p.vpnOfFrm[frame]
		pte := p.as.PTEOf(vpn)
		if !pte.Dirty {
			continue
		}
		data, _ := p.dram.Data(frame)
		p.link.DMAPage(now)
		if _, err := p.ftl.WritePage(now, pte.SSDPage, data); err != nil {
			*p.hot.writebackFailures++
		}
		pte.Dirty = false
	}
}

// Crash implements Hierarchy: DRAM contents (dirty, un-synced pages) are
// lost; flash survives.
func (p *pagingHierarchy) Crash() {
	if p.crashed {
		return
	}
	for _, frame := range sortedFrames(p.vpnOfFrm) {
		vpn := p.vpnOfFrm[frame]
		pte := p.as.PTEOf(vpn)
		p.as.UpdateMapping(vpn, vm.PTE{Loc: vm.InSSD, SSDPage: pte.SSDPage})
		p.dram.Release(frame)
	}
	p.vpnOfFrm = make(map[int]uint64)
	p.c.Add("crashes", 1)
	p.crashed = true
}

// Recover implements Hierarchy.
func (p *pagingHierarchy) Recover() { p.crashed = false }

// Counters implements Hierarchy.
func (p *pagingHierarchy) Counters() *stats.Counters {
	out := stats.NewCounters()
	out.Merge(p.c)
	host, progs := p.ftl.Writes()
	out.Add("flash_host_writes", host)
	out.Add("flash_programs", progs)
	out.Add("flash_reads", p.ftl.Device().Reads())
	erases, maxWear, _ := p.ftl.Device().Wear()
	out.Add("flash_erases", erases)
	out.Add("flash_max_block_wear", maxWear)
	rm := p.ftl.Remap()
	out.Add("gc_runs", rm.GCRuns)
	out.Add("gc_relocations", rm.Relocations)
	out.Add("gc_remap_interrupts", rm.BatchInterrupts)
	r, w, d, tagged := p.link.Stats()
	out.Add("pcie_mmio_reads", r)
	out.Add("pcie_mmio_writes", w)
	out.Add("pcie_dma_pages", d)
	out.Add("pcie_persist_tagged", tagged)
	out.Add("pcie_traffic_bytes", p.link.TrafficBytes(p.cfg.CacheLineSize, p.cfg.PageSize))
	th, tm, sd := p.as.Stats()
	out.Add("tlb_hits", th)
	out.Add("tlb_misses", tm)
	out.Add("tlb_shootdowns", sd)
	return out
}

// Compile-time interface checks.
var (
	_ Hierarchy = (*FlatFlash)(nil)
	_ Hierarchy = (*pagingHierarchy)(nil)
)
