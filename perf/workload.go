package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/experiments"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// workloadDef is one named input set of the benchmark.
type workloadDef struct {
	name string
	why  string
	// prepare generates the inputs for seed, outside every timer, and
	// returns the set-up that builds a fresh instance over them.
	prepare func(seed uint64) (setup func() (instance, error))
}

// passResult is the model's outcome over a workload's fixed pass: a
// deterministic function of the seed and the simulator, whatever the host.
type passResult struct {
	ops    int64
	digest uint64 // FNV-64 over the returned virtual latencies and final counters

	virtMean    float64 // simulated ns per op
	virtP99     float64 // simulated ns
	virtOpsPerS float64 // ops per simulated second
	shedRate    float64 // fleet only

	counts     map[string]float64 // per-layer model counts; nil where not visible
	attrib     map[string]float64 // attrib.<component>_ns_per_op; nil unless traced
	expSeconds map[string]float64 // paper-quick: host seconds per experiment
}

// Trace words pack one operation in 8 bytes: the kind in the top two bits,
// a region offset (or, for GUPS, the update's random word) below.
const (
	opRead uint64 = iota
	opWrite
	opRMW

	kindShift = 62
	valueMask = 1<<kindShift - 1
)

// synthSpec sizes one synthetic workload: a FlatFlash device driven through
// core.FlatFlash's Read/Write/Persist by a replayed, seed-generated trace.
type synthSpec struct {
	ssd, dram  uint64 // device sizes
	region     uint64 // mapped bytes
	persistent bool   // MmapPersistent; every write is followed by Persist
	mapCache   int    // MapCachePages (with MapPipeline); 0 keeps the in-memory map
	fillBytes  uint64 // set-up writes the whole region in writes of this size; 0 skips it
	warmOps    int64  // trace ops replayed during set-up
	traceOps   int    // packed trace length, a power of two, replayed cyclically
	passOps    int64  // the fixed pass, a multiple of batchOps
	batchOps   int64
	gen        func(seed uint64, region uint64, tr []uint64)
}

func genZipf(seed, region uint64, tr []uint64) {
	st, err := workload.NewStream("zipf", sim.NewRNG(seed), region)
	if err != nil {
		panic(err) // the region is a constant that holds many records
	}
	for i := range tr {
		op := st.Next()
		kind := opRead
		if op.Write {
			kind = opWrite
		}
		tr[i] = kind<<kindShift | op.Off
	}
}

func genGUPS(seed, _ uint64, tr []uint64) {
	rng := sim.NewRNG(seed)
	for i := range tr {
		tr[i] = opRMW<<kindShift | rng.Uint64()&valueMask
	}
}

// genPersistMix: 50% Zipf reads of the region's data half, 25% uniform
// overwrites of the data half, 25% sequential appends to the log half.
func genPersistMix(seed, region uint64, tr []uint64) {
	half := region / 2
	slots := half / workload.RecordBytes
	rng := sim.NewRNG(seed)
	keys := workload.NewScrambledZipf(sim.NewRNG(seed^0x5eed), slots, workload.DefaultZipfTheta)
	var log uint64
	for i := range tr {
		switch u := rng.Float64(); {
		case u < 0.50:
			tr[i] = opRead<<kindShift | keys.Next()*workload.RecordBytes
		case u < 0.75:
			tr[i] = opWrite<<kindShift | rng.Uint64n(slots)*workload.RecordBytes
		default:
			tr[i] = opWrite<<kindShift | (half + log%slots*workload.RecordBytes)
			log++
		}
	}
}

func (sp *synthSpec) prepare(seed uint64) func() (instance, error) {
	tr := make([]uint64, sp.traceOps)
	sp.gen(seed, sp.region, tr)
	return func() (instance, error) { return sp.build(seed, tr) }
}

// synth is one built synthetic workload. A shadow copy of the region checks
// every read; every write stamps the seed and its op index into the data.
type synth struct {
	spec   *synthSpec
	seed   uint64
	h      *core.FlatFlash
	base   uint64
	trace  []uint64
	shadow []byte
	buf    [workload.RecordBytes]byte

	op     int64 // next trace index: the warm-up, then the measured ops
	done   int64 // measured ops
	failed int64

	lats    []int64 // the pass's simulated op latencies, for its p99
	virtSum int64
	digest  uint64
	start   *stats.Counters // counters when measuring began
	t0      sim.Time
	res     *passResult

	tr    *tracer // nil when untraced
	att   *telemetry.Attribution
	spans [3]int // tracer ids: read, write, persist
}

func (sp *synthSpec) build(seed uint64, tr []uint64) (*synth, error) {
	cfg := core.DefaultConfig(sp.ssd, sp.dram)
	cfg.MapCachePages = sp.mapCache
	cfg.MapPipeline = sp.mapCache > 0
	h, err := core.NewFlatFlash(cfg)
	if err != nil {
		return nil, err
	}
	var reg core.Region
	if sp.persistent {
		reg, err = h.MmapPersistent(sp.region)
	} else {
		reg, err = h.Mmap(sp.region)
	}
	if err != nil {
		return nil, err
	}
	s := &synth{spec: sp, seed: seed, h: h, base: reg.Base, trace: tr, shadow: make([]byte, sp.region)}
	if sp.fillBytes > 0 {
		b := make([]byte, sp.fillBytes)
		for off := uint64(0); off < sp.region; off += sp.fillBytes {
			// Fill stamps carry the top bit, so they never equal an op's.
			stamp(b, seed, 1<<63|off)
			copy(s.shadow[off:], b)
			if _, err := h.Write(s.base+off, b); err != nil {
				return nil, fmt.Errorf("fill at %d: %w", off, err)
			}
		}
	}
	for s.op < sp.warmOps {
		s.do()
	}
	if s.failed > 0 {
		return nil, fmt.Errorf("%d failed operations during warm-up", s.failed)
	}
	s.lats = make([]int64, 0, sp.passOps)
	s.virtSum, s.digest = 0, fnvOffset
	s.start, s.t0 = h.Counters(), h.Now()
	return s, nil
}

// stamp fills b with 8-byte words alternating op and seed.
func stamp(b []byte, seed, op uint64) {
	for j := 0; j+8 <= len(b); j += 8 {
		v := op
		if j%16 != 0 {
			v = seed
		}
		binary.LittleEndian.PutUint64(b[j:], v)
	}
}

func (s *synth) step(func()) int64 {
	for i := int64(0); i < s.spec.batchOps; i++ {
		s.do()
	}
	s.done += s.spec.batchOps
	if s.done == s.spec.passOps {
		s.res = s.snapshot()
	}
	return s.spec.batchOps
}

func (s *synth) passDone() bool    { return s.res != nil }
func (s *synth) pass() *passResult { return s.res }
func (s *synth) failures() int64   { return s.failed }

func (s *synth) traceWith(t *tracer) {
	s.tr = t
	s.spans = [3]int{t.id(spanRead), t.id(spanWrite), t.id(spanPersist)}
	s.att = telemetry.NewAttribution(0, 0)
	s.h.SetAttribution(s.att)
}

// do runs the next trace op and folds its simulated latency into the pass.
func (s *synth) do() {
	i := s.op
	s.op++
	w := s.trace[i&int64(len(s.trace)-1)]
	v := w & valueMask
	var lat sim.Duration
	switch w >> kindShift {
	case opRead:
		lat = s.read(i, v, s.buf[:])
	case opWrite:
		stamp(s.buf[:], s.seed, uint64(i))
		lat = s.store(i, v, s.buf[:])
	case opRMW:
		// The HPCC RandomAccess update: table[v mod words] ^= v.
		off := v % (s.spec.region / 8) * 8
		b := s.buf[:8]
		lat = s.read(i, off, b)
		binary.LittleEndian.PutUint64(b, binary.LittleEndian.Uint64(b)^v)
		lat += s.store(i, off, b)
	}
	if len(s.lats) < cap(s.lats) {
		s.lats = append(s.lats, int64(lat))
	}
	s.virtSum += int64(lat)
	s.digest = fold(s.digest, uint64(lat))
}

func (s *synth) read(i int64, off uint64, b []byte) sim.Duration {
	var t time.Time
	if s.tr != nil {
		t = now()
	}
	lat, err := s.h.Read(s.base+off, b)
	if s.tr != nil {
		s.tr.span(s.spans[0], i, t)
	}
	if err != nil || !bytes.Equal(b, s.shadow[off:off+uint64(len(b))]) {
		s.failed++
	}
	return lat
}

func (s *synth) store(i int64, off uint64, b []byte) sim.Duration {
	copy(s.shadow[off:], b)
	var t time.Time
	if s.tr != nil {
		t = now()
	}
	lat, err := s.h.Write(s.base+off, b)
	if s.tr != nil {
		s.tr.span(s.spans[1], i, t)
	}
	if err != nil {
		s.failed++
	}
	if !s.spec.persistent {
		return lat
	}
	if s.tr != nil {
		t = now()
	}
	pl, err := s.h.Persist(s.base+off, len(b))
	if s.tr != nil {
		s.tr.span(s.spans[2], i, t)
	}
	if err != nil {
		s.failed++
	}
	return lat + pl
}

func (s *synth) snapshot() *passResult {
	end := s.h.Counters()
	h := s.digest
	for _, kv := range end.Snapshot() {
		h = fold(foldBytes(h, []byte(kv.Name)), uint64(kv.Value))
	}
	ops := float64(s.done)
	r := &passResult{
		ops:         s.done,
		digest:      h,
		virtMean:    float64(s.virtSum) / ops,
		virtP99:     p99(s.lats),
		virtOpsPerS: ratio(ops, s.h.Now().Sub(s.t0).Seconds()),
		counts: modelCounts(func(n string) float64 {
			return float64(end.Get(n) - s.start.Get(n))
		}, ops),
	}
	if s.att != nil {
		r.attrib = attribPerOp([]*telemetry.Attribution{s.att}, ops)
	}
	return r
}

// p99 returns the nearest-rank 99th percentile of xs, reordering xs.
func p99(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return float64(xs[(len(xs)*99+99)/100-1])
}

// modelCounts derives the per-layer model counts from counter deltas d over
// ops operations.
func modelCounts(d func(string) float64, ops float64) map[string]float64 {
	kop := ops / 1000
	return map[string]float64{
		"vm.tlb_miss_ratio":                ratio(d("tlb_misses"), d("tlb_hits")+d("tlb_misses")),
		"dram.accesses_per_op":             ratio(d("dram_reads")+d("dram_writes"), ops),
		"promote.promotions_per_kop":       ratio(d("promotions"), kop),
		"plb.redirects_per_kop":            ratio(d("plb_redirects"), kop),
		"ssdcache.hit_ratio":               ratio(d("ssdcache_hits"), d("ssdcache_hits")+d("ssdcache_misses")),
		"ssdcache.dirty_evictions_per_kop": ratio(d("ssdcache_dirty_evictions"), kop),
		"pcie.mmio_per_op":                 ratio(d("pcie_mmio_reads")+d("pcie_mmio_writes"), ops),
		"pcie.bytes_per_op":                ratio(d("pcie_traffic_bytes"), ops),
		"flash.reads_per_kop":              ratio(d("flash_reads"), kop),
		"flash.programs_per_kop":           ratio(d("flash_programs"), kop),
		"flash.erases_per_kop":             ratio(d("flash_erases"), kop),
		"ftl.write_amp":                    ratio(d("flash_programs"), d("flash_host_writes")),
		"ftl.gc_relocations_per_kop":       ratio(d("gc_relocations"), kop),
		"mapcache.miss_ratio":              ratio(d("map_cache_misses"), d("map_cache_hits")+d("map_cache_misses")),
		"mapcache.fetches_per_kop":         ratio(d("map_fetches"), kop),
		"core.persist_lines_per_kop":       ratio(d("persist_lines"), kop),
	}
}

// components lists the attribution components in the budget table's order.
func components() []telemetry.Component {
	out := make([]telemetry.Component, telemetry.NumComponents)
	for c := range out {
		out[c] = telemetry.Component(c)
	}
	return out
}

// attribPerOp returns each component's attributed simulated ns per op,
// summed over every account of every engine.
func attribPerOp(atts []*telemetry.Attribution, ops float64) map[string]float64 {
	out := make(map[string]float64)
	for _, c := range components() {
		var sum int64
		for _, a := range atts {
			for _, acct := range a.Accounts() {
				sum += acct.Sum(c)
			}
		}
		out["attrib."+c.String()+"_ns_per_op"] = ratio(float64(sum), ops)
	}
	return out
}

// fleetConfig is the fleet-openloop workload: two shards with the default
// 64 MiB SSD / 4 MiB DRAM device, open-loop Poisson arrivals at 100k/s with
// a diurnal swing, a 400 µs SLO (which turns attribution on), sequential
// engine unless parallel >= 2.
func fleetConfig(seed uint64, ops, parallel int) fleet.Config {
	return fleet.Config{
		Shards:   2,
		RingSeed: 1, // placement is configuration; the seed varies the traffic
		Arrivals: workload.ArrivalConfig{
			MixSpec:       "zipf+txlog",
			Rate:          100_000,
			DiurnalAmp:    0.4,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 20,
			RegionBytes:   16 << 20,
			Ops:           ops,
			Seed:          seed,
		},
		Server:   mtsim.ServerOptions{SLO: 400 * sim.Microsecond},
		Parallel: parallel,
	}
}

type fleetSpec struct {
	ops, warmOps int // arrivals per fleet.Run call, and in the set-up call
}

func (sp fleetSpec) prepare(seed uint64) func() (instance, error) {
	return func() (instance, error) {
		if _, err := fleet.Run(fleetConfig(seed, sp.warmOps, 0)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return &fleetRun{cfg: fleetConfig(seed, sp.ops, 0)}, nil
	}
}

// fleetRun measures whole fleet.Run calls; one op is one arrival. Every call
// replays the same arrivals, so every call must produce the first call's
// report.
type fleetRun struct {
	cfg    fleet.Config
	res    *passResult
	calls  int64
	failed int64
	tr     *tracer
	span   int
	report bytes.Buffer
}

func (f *fleetRun) step(func()) int64 {
	var t time.Time
	if f.tr != nil {
		t = now()
	}
	res, err := fleet.Run(f.cfg)
	if f.tr != nil {
		f.tr.span(f.span, f.calls, t)
	}
	f.calls++
	n := int64(f.cfg.Arrivals.Ops)
	if err != nil {
		f.failed += n
		return n
	}
	pr, err := f.summarize(res)
	switch {
	case err != nil:
		f.failed++
	case res.Admitted()+res.Shed() != n:
		f.failed++ // an arrival was neither admitted nor shed
	case f.res == nil:
		f.res = pr
	case pr.digest != f.res.digest:
		f.failed++
	}
	return n
}

func (f *fleetRun) passDone() bool    { return f.res != nil }
func (f *fleetRun) pass() *passResult { return f.res }
func (f *fleetRun) failures() int64   { return f.failed }

// traceWith adds a span per fleet.Run call; the SLO already has every shard
// attributing.
func (f *fleetRun) traceWith(t *tracer) {
	f.tr = t
	f.span = t.id(spanFleet)
}

func (f *fleetRun) summarize(res *fleet.Result) (*passResult, error) {
	f.report.Reset()
	if err := res.Write(&f.report); err != nil {
		return nil, err
	}
	h := foldBytes(fnvOffset, f.report.Bytes())
	total := stats.NewCounters()
	waits := stats.NewHistogram()
	var atts []*telemetry.Attribution
	for _, s := range res.Shards {
		c := s.Counters()
		for _, kv := range c.Snapshot() {
			h = fold(foldBytes(h, []byte(kv.Name)), uint64(kv.Value))
		}
		total.Merge(c)
		waits.Merge(s.Waits())
		atts = append(atts, s.Attribution())
	}
	qdepth, err := reportField(f.report.String(), "qdepth_max=")
	if err != nil {
		return nil, err
	}
	ops := float64(f.cfg.Arrivals.Ops)
	hist := res.Hist()
	r := &passResult{
		ops:         int64(ops),
		digest:      h,
		virtMean:    float64(hist.Mean()),
		virtP99:     float64(hist.Percentile(99)),
		virtOpsPerS: res.Throughput(),
		shedRate:    res.ShedRate(),
		counts:      modelCounts(func(n string) float64 { return float64(total.Get(n)) }, ops),
		attrib:      attribPerOp(atts, float64(res.Admitted())),
	}
	r.counts["mtsim.wait_p99_ns"] = float64(waits.Percentile(99))
	r.counts["mtsim.qdepth_max"] = qdepth
	return r, nil
}

// reportField returns the largest integer value of key across the report's
// shard lines.
func reportField(report, key string) (float64, error) {
	var best int64
	found := false
	for _, f := range strings.Fields(report) {
		v, ok := strings.CutPrefix(f, key)
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("report field %s%s: %w", key, v, err)
		}
		best, found = max(best, n), true
	}
	if !found {
		return 0, fmt.Errorf("report has no %s field", key)
	}
	return float64(best), nil
}

type paperSpec struct {
	ids  []string // experiments in one pass; nil is the whole registry
	warm []string // experiments run during set-up
}

// prepare ignores the seed: every experiment carries its own fixed seeds.
func (sp paperSpec) prepare(uint64) func() (instance, error) {
	ids := sp.ids
	if ids == nil {
		ids = experiments.IDs()
	}
	return func() (instance, error) {
		for _, id := range sp.warm {
			if err := experiments.Run(io.Discard, id, experiments.Quick); err != nil {
				return nil, err
			}
		}
		return &paperRun{ids: ids}, nil
	}
}

// paperRun runs experiments.Run over every registered experiment at Quick
// scale; one op is one experiment and one step is one whole pass.
type paperRun struct {
	ids     []string
	digests []uint64 // report digest per experiment, from the first pass
	res     *passResult
	failed  int64
	buf     bytes.Buffer
	tr      *tracer
	att     *telemetry.Attribution
	passes  int64
}

func (p *paperRun) step(mark func()) int64 {
	secs := make(map[string]float64, len(p.ids))
	for i, id := range p.ids {
		p.buf.Reset()
		t := now()
		err := experiments.Run(&p.buf, id, experiments.Quick)
		// Collect the experiment's garbage inside its own time, so one
		// experiment's heap does not tax the next one's.
		runtime.GC()
		secs[id] = since(t)
		if p.tr != nil {
			p.tr.span(p.tr.id("experiments."+id), p.passes, t)
		}
		var d uint64
		if err != nil || !bytes.HasPrefix(p.buf.Bytes(), []byte("== ")) {
			p.failed++
		} else {
			d = reportDigest(p.buf.Bytes())
		}
		if p.passes == 0 {
			p.digests = append(p.digests, d)
		} else if d != p.digests[i] {
			p.failed++ // the same experiment printed different bytes
		}
		if i < len(p.ids)-1 {
			mark()
		}
	}
	p.passes++
	if p.res == nil {
		p.res = p.summarize(secs)
	}
	return int64(len(p.ids))
}

func (p *paperRun) passDone() bool    { return p.res != nil }
func (p *paperRun) pass() *passResult { return p.res }
func (p *paperRun) failures() int64   { return p.failed }

// reportDigest hashes an experiment's report without the latency-budget
// notes an attached attribution engine adds to it (the consolidate sweep
// prints one per point), so traced and untraced reports compare equal
// exactly when the model computed the same results.
func reportDigest(report []byte) uint64 {
	h := fnvOffset
	for _, line := range bytes.SplitAfter(report, []byte("\n")) {
		if bytes.HasPrefix(line, []byte("  note: latency budget")) || bytes.HasPrefix(line, []byte("  note:   ")) {
			continue
		}
		h = foldBytes(h, line)
	}
	return h
}

func (p *paperRun) traceWith(t *tracer) {
	p.tr = t
	p.att = telemetry.NewAttribution(0, 0)
	experiments.SetAttribution(p.att, nil)
}

// summarize folds the per-experiment report digests into the pass digest.
// The experiments' model outcome is visible only through an attached
// attribution engine: there, an op is one attributed access.
func (p *paperRun) summarize(secs map[string]float64) *passResult {
	h := fnvOffset
	for i, d := range p.digests {
		h = fold(foldBytes(h, []byte(p.ids[i])), d)
	}
	r := &passResult{ops: int64(len(p.ids)), digest: h, expSeconds: secs}
	if p.att == nil {
		return r
	}
	experiments.SetAttribution(nil, nil) // the budget covers the first pass only
	total := stats.NewHistogram()
	var sum int64
	for _, acct := range p.att.Accounts() {
		total.Merge(acct.Total())
		sum += acct.SumTotal()
	}
	accesses := float64(total.Count())
	r.virtMean = ratio(float64(sum), accesses)
	r.virtP99 = float64(total.Percentile(99))
	r.virtOpsPerS = ratio(accesses, float64(sum)/1e9)
	r.attrib = attribPerOp([]*telemetry.Attribution{p.att}, accesses)
	return r
}

// registry returns the benchmark's workloads; tiny shrinks every size so the
// tests can run each one in-process in well under a second.
func registry(tiny bool) []workloadDef {
	hot := &synthSpec{ssd: 64 << 20, dram: 4 << 20, region: 256 << 10,
		warmOps: 200_000, traceOps: 1 << 20, passOps: 1 << 20, batchOps: 1 << 18, gen: genZipf}
	// GUPS initializes its table one 8-byte word at a time, as HPCC does.
	gups := &synthSpec{ssd: 64 << 20, dram: 128 << 10, region: 2 << 20, fillBytes: 8,
		traceOps: 1 << 20, passOps: 1 << 18, batchOps: 1 << 15, gen: genGUPS}
	persist := &synthSpec{ssd: 16 << 20, dram: 512 << 10, region: 12 << 20, persistent: true,
		mapCache: 1, fillBytes: pageSize, traceOps: 1 << 20, passOps: 1 << 17, batchOps: 1 << 15, gen: genPersistMix}
	flt := fleetSpec{ops: 100_000, warmOps: 4_000}
	paper := paperSpec{warm: []string{"table2", "fig8", "fig9a"}}
	if tiny {
		hot.warmOps, hot.traceOps, hot.passOps, hot.batchOps = 2_000, 1<<12, 1<<12, 1<<10
		gups.region, gups.traceOps, gups.passOps, gups.batchOps = 256<<10, 1<<12, 1<<11, 1<<9
		persist.ssd, persist.dram, persist.region = 1<<20, 64<<10, 768<<10
		persist.traceOps, persist.passOps, persist.batchOps = 1<<12, 1<<11, 1<<9
		flt = fleetSpec{ops: 1_000, warmOps: 200}
		paper = paperSpec{ids: []string{"table2", "fig9a"}, warm: []string{"table2"}}
	}
	return []workloadDef{
		{name: "hot-zipf", prepare: hot.prepare,
			why: "skewed 64 B accesses that, once warm, hit promoted DRAM pages: core, vm and dram work, the SSD side idles"},
		{name: "gups-random", prepare: gups.prepare,
			why: "8 B updates spread over 16x the DRAM: every one pays an MMIO round trip, an SSD-Cache fill from flash and a dirty eviction"},
		{name: "persist-mix", prepare: persist.prepare,
			why: "persisted writes beside reads at 75% fill: GC relocations, demand-map misses, write-back through the SSD-Cache"},
		{name: "fleet-openloop", prepare: flt.prepare,
			why: "two shards under open-loop arrivals near saturation: the only run through mtsim queues, admission, ring and attribution"},
		{name: "paper-quick", prepare: paper.prepare,
			why: "every table and figure at Quick scale, as users run them: the baselines and the txdb, fsim, graph and kvstore case studies"},
	}
}

// find returns the named workload.
func find(ws []workloadDef, name string) (workloadDef, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
