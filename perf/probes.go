package main

import (
	"bytes"
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/dram"
	"flatflash/internal/flash"
	"flatflash/internal/fleet"
	"flatflash/internal/mapcache"
	"flatflash/internal/pcie"
	"flatflash/internal/plb"
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/ssdcache"
	"flatflash/internal/telemetry"
	"flatflash/internal/vm"
)

// A probe times direct calls into one layer's exported functions, with
// inputs that replay the address distribution of the workload that layer
// matters most to. It measures the layer alone, the way the paper's related
// simulators validate each resource model before composing them.
type probe struct {
	name string
	run  func(seed uint64) (float64, error)
}

// Probe sizes: calls per probe, timed in chunks whose median is reported.
const (
	probeCalls = 1 << 17
	probeChunk = 1 << 10
)

// Sizes the probes share with the workloads they replay.
const (
	pageSize    = 4096
	hotRegion   = 256 << 10
	gupsTable   = 2 << 20
	gupsWords   = gupsTable / 8
	persistSSD  = 16 << 20
	persistDRAM = 512 << 10
	persistData = 12 << 20
)

var probes = []probe{
	{"vm.translate_ns", probeTranslate},
	{"dram.touch_ns", probeTouch},
	{"ssdcache.lookup_insert_ns", probeCache},
	{"pcie.mmio_read_ns", probeMMIO},
	{"flash.read_ns", probeFlashRead},
	{"flash.program_ns", probeFlashProgram},
	{"plb.access_ns", probePLB},
	{"promote.update_ns", probePromote},
	{"ftl.write_page_ns", func(seed uint64) (float64, error) { return probeFTL(seed, true) }},
	{"ftl.read_page_ns", func(seed uint64) (float64, error) { return probeFTL(seed, false) }},
	{"mapcache.lookup_ns", probeMapCache},
	{"sim.eventqueue_ns", probeEventQueue},
	{"telemetry.attrib_window_ns", probeAttrib},
	{"psim.speedup_x", probePsim},
}

// timeCalls runs f(0..n-1) in chunks and returns the median host ns per call.
func timeCalls(n int, f func(i int)) float64 {
	var per []float64
	for i := 0; i+probeChunk <= n; i += probeChunk {
		t := now()
		for j := i; j < i+probeChunk; j++ {
			f(j)
		}
		per = append(per, float64(now().Sub(t).Nanoseconds())/probeChunk)
	}
	return median(per)
}

// opValues generates n ops of a workload's distribution and returns their
// values (offsets, or GUPS words).
func opValues(gen func(seed, region uint64, tr []uint64), seed, region uint64, n int) []uint64 {
	tr := make([]uint64, n)
	gen(seed, region, tr)
	for i := range tr {
		tr[i] &= valueMask
	}
	return tr
}

// hot-zipf: the region's pages mapped DRAM-resident, translated in the
// workload's page order.
func probeTranslate(seed uint64) (float64, error) {
	offs := opValues(genZipf, seed, hotRegion, probeCalls)
	as, err := vm.New(vm.DefaultConfig(), (64<<20)/pageSize)
	if err != nil {
		return 0, err
	}
	vpn0, err := as.Reserve(hotRegion / pageSize)
	if err != nil {
		return 0, err
	}
	for p := 0; p < hotRegion/pageSize; p++ {
		as.Map(vpn0+uint64(p), vm.PTE{Loc: vm.InDRAM, Frame: p})
	}
	var ferr error
	ns := timeCalls(len(offs), func(i int) {
		if _, _, err := as.Translate(vpn0 + offs[i]/pageSize); err != nil {
			ferr = err
		}
	})
	return ns, ferr
}

// hot-zipf: one frame per region page, touched in the workload's page order.
func probeTouch(seed uint64) (float64, error) {
	offs := opValues(genZipf, seed, hotRegion, probeCalls)
	d, err := dram.New(dram.Config{Frames: (4 << 20) / pageSize, PageSize: pageSize, AccessLatency: dram.DefaultAccessLatency})
	if err != nil {
		return 0, err
	}
	frames := make([]int, hotRegion/pageSize)
	for i := range frames {
		if frames[i], err = d.Alloc(); err != nil {
			return 0, err
		}
	}
	var ferr error
	ns := timeCalls(len(offs), func(i int) {
		if _, err := d.Touch(frames[offs[i]/pageSize]); err != nil {
			ferr = err
		}
	})
	return ns, ferr
}

// gupsPage maps a GUPS word to the table page it updates.
func gupsPage(v uint64) uint32 { return uint32(v % gupsWords * 8 / pageSize) }

// gups-random: the default-sized SSD-Cache of a 64 MiB device, looked up in
// the workload's page order with an insert on every miss.
func probeCache(seed uint64) (float64, error) {
	words := opValues(genGUPS, seed, gupsTable, probeCalls)
	cfg := core.DefaultConfig(64<<20, 128<<10)
	c, err := ssdcache.New(ssdcache.Config{
		Pages:    ssdcache.SizeFor(cfg.SSDBytes, cfg.SSDCacheFraction, cfg.PageSize, cfg.SSDCacheWays),
		Ways:     cfg.SSDCacheWays,
		PageSize: cfg.PageSize,
		Policy:   cfg.SSDCachePolicy,
	})
	if err != nil {
		return 0, err
	}
	page := make([]byte, pageSize)
	return timeCalls(len(words), func(i int) {
		lpn := gupsPage(words[i])
		if _, ok := c.Lookup(lpn); !ok {
			c.Insert(lpn, page, false)
		}
	}), nil
}

// gups-random: back-to-back non-persistent MMIO reads.
func probeMMIO(uint64) (float64, error) {
	l, err := pcie.NewLink(pcie.DefaultConfig())
	if err != nil {
		return 0, err
	}
	var t sim.Time
	return timeCalls(probeCalls, func(int) { t = l.MMIORead(t, false) }), nil
}

// flashDevice builds the NAND device of a 64 MiB FlatFlash SSD.
func flashDevice() (*flash.Device, error) {
	f, err := core.DefaultConfig(64<<20, 128<<10).BuildFTL(false)
	if err != nil {
		return nil, err
	}
	return flash.NewDevice(f.Device().Config())
}

// gups-random: page reads of a fully programmed device in the workload's
// page order.
func probeFlashRead(seed uint64) (float64, error) {
	dev, err := flashDevice()
	if err != nil {
		return 0, err
	}
	page := make([]byte, pageSize)
	var t sim.Time
	for p := 0; p < dev.Config().TotalPages(); p++ {
		if t, err = dev.Program(t, flash.PageAddr(p), page); err != nil {
			return 0, err
		}
	}
	words := opValues(genGUPS, seed, gupsTable, probeCalls)
	total := uint64(dev.Config().TotalPages())
	var ferr error
	ns := timeCalls(len(words), func(i int) {
		if t, err = dev.Read(t, flash.PageAddr(words[i]%total), page); err != nil {
			ferr = err
		}
	})
	return ns, ferr
}

// gups-random: sequential page programs, each block erased before its first
// program, so the erase is amortized over the block's pages.
func probeFlashProgram(uint64) (float64, error) {
	dev, err := flashDevice()
	if err != nil {
		return 0, err
	}
	cfg := dev.Config()
	page := make([]byte, pageSize)
	var (
		t    sim.Time
		ferr error
	)
	ns := timeCalls(probeCalls, func(i int) {
		p := i % cfg.TotalPages()
		if p%cfg.PagesPerBlock == 0 {
			if t, err = dev.Erase(t, p/cfg.PagesPerBlock); err != nil {
				ferr = err
			}
		}
		if t, err = dev.Program(t, flash.PageAddr(p), page); err != nil {
			ferr = err
		}
	})
	return ns, ferr
}

// gups-random: 8 B loads at the workload's in-page offsets, to a page whose
// promotion is in flight (none of its lines copied yet).
func probePLB(seed uint64) (float64, error) {
	words := opValues(genGUPS, seed, gupsTable, probeCalls)
	p, err := plb.New(plb.DefaultConfig())
	if err != nil {
		return 0, err
	}
	if err := p.Start(0, 7, 0, make([]byte, pageSize), make([]byte, pageSize), false); err != nil {
		return 0, err
	}
	b := make([]byte, 8)
	return timeCalls(len(words), func(i int) {
		p.Access(1, 7, int(words[i]%gupsWords*8%pageSize), b, false)
	}), nil
}

// gups-random: Algorithm 1's update with each page's access count, reset
// when the policy promotes the page.
func probePromote(seed uint64) (float64, error) {
	words := opValues(genGUPS, seed, gupsTable, probeCalls)
	pol := promote.New(promote.DefaultParams())
	cnt := make([]int, gupsTable/pageSize)
	return timeCalls(len(words), func(i int) {
		pg := gupsPage(words[i])
		cnt[pg]++
		if pol.Update(cnt[pg]) {
			cnt[pg] = 0
		}
	}), nil
}

// persist-mix: the workload's FTL (demand map, one resident translation
// page, pipelined) filled to 75%, driven with the pages of the workload's
// writes (GC included) or reads.
func probeFTL(seed uint64, writes bool) (float64, error) {
	cfg := core.DefaultConfig(persistSSD, persistDRAM)
	cfg.MapCachePages, cfg.MapPipeline = 1, true
	f, err := cfg.BuildFTL(false)
	if err != nil {
		return 0, err
	}
	page := make([]byte, pageSize)
	var t sim.Time
	for lpn := uint32(0); lpn < persistData/pageSize; lpn++ {
		if t, err = f.WritePage(t, lpn, page); err != nil {
			return 0, err
		}
	}
	tr := make([]uint64, 2*probeCalls)
	genPersistMix(seed, persistData, tr)
	var lpns []uint32
	for _, w := range tr {
		if (w>>kindShift == opWrite) == writes {
			lpns = append(lpns, uint32(w&valueMask/pageSize))
		}
	}
	var ferr error
	ns := timeCalls(len(lpns), func(i int) {
		if writes {
			t, err = f.WritePage(t, lpns[i], page)
		} else {
			t, err = f.ReadPage(t, lpns[i], page)
		}
		if err != nil {
			ferr = err
		}
	})
	return ns, ferr
}

// persist-mix: a hit on the one resident translation page.
func probeMapCache(uint64) (float64, error) {
	cfg := core.DefaultConfig(persistSSD, persistDRAM)
	f, err := cfg.BuildFTL(false)
	if err != nil {
		return 0, err
	}
	epp := pageSize / mapcache.EntryBytes
	mc, err := mapcache.New(mapcache.Config{TransPages: (f.LogicalPages() + epp - 1) / epp, CachePages: 1})
	if err != nil {
		return 0, err
	}
	mc.Insert(0)
	var miss bool
	ns := timeCalls(probeCalls, func(int) { miss = miss || !mc.Lookup(0) })
	if miss {
		return 0, fmt.Errorf("mapcache probe: resident page missed")
	}
	return ns, nil
}

// fleet-openloop: Pop the earliest of 16 pending events and Push its next
// wake-up, with gaps of the workload's 100k/s arrival rate.
func probeEventQueue(seed uint64) (float64, error) {
	rng := sim.NewRNG(seed)
	var q sim.EventQueue
	for a := 0; a < 16; a++ {
		q.Push(sim.Time(rng.Uint64n(20_000)), a)
	}
	gaps := make([]sim.Duration, probeCalls)
	for i := range gaps {
		gaps[i] = sim.Duration(rng.Uint64n(20_000))
	}
	return timeCalls(probeCalls, func(i int) {
		at, actor := q.Pop()
		q.Push(at.Add(gaps[i]), actor)
	}), nil
}

// fleet-openloop: one attributed access window — Begin, three Charges, End —
// under the workload's 400 µs SLO.
func probeAttrib(uint64) (float64, error) {
	a := telemetry.NewAttribution(400*sim.Microsecond, 0)
	acct := a.Account("probe")
	var t sim.Time
	return timeCalls(probeCalls, func(int) {
		a.Begin(acct)
		a.Charge(telemetry.CompLink, 4800)
		a.Charge(telemetry.CompCacheFill, 50)
		a.Charge(telemetry.CompFlash, 20_000)
		t = t.Add(25_000)
		a.End(25_000, t)
	}), nil
}

// psimArrivals sizes the fleet the speed-up probe runs on each engine.
const psimArrivals = 20_000

// fleet-openloop on the psim engine with two workers against the sequential
// engine, alternating three runs each; the two reports must be identical.
func probePsim(seed uint64) (float64, error) {
	var seq, par []float64
	var reports [2]bytes.Buffer
	for r := 0; r < 3; r++ {
		for i, workers := range []int{0, 2} {
			t := now()
			res, err := fleet.Run(fleetConfig(seed, psimArrivals, workers))
			d := since(t)
			if err != nil {
				return 0, err
			}
			reports[i].Reset()
			if err := res.Write(&reports[i]); err != nil {
				return 0, err
			}
			if workers == 0 {
				seq = append(seq, d)
			} else {
				par = append(par, d)
			}
		}
		if !bytes.Equal(reports[0].Bytes(), reports[1].Bytes()) {
			return 0, fmt.Errorf("psim probe: parallel fleet report differs from sequential")
		}
	}
	return median(seq) / median(par), nil
}
