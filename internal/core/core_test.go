package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

// Small-scale config: 4MB SSD, 256KB DRAM (64 frames), tiny SSD-Cache.
func testConfig() Config {
	cfg := DefaultConfig(4<<20, 256<<10)
	cfg.SSDCacheFraction = 0.01 // 10 pages-ish, keep tests snappy
	return cfg
}

func newAll(t *testing.T) []Hierarchy {
	t.Helper()
	ff, err := NewFlatFlash(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	um, err := NewUnifiedMMap(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewTraditionalStack(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return []Hierarchy{ff, um, ts}
}

func TestConfigValidateRejectsBad(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.PageSize = 0 },
		func(c *Config) { c.CacheLineSize = 48 }, // not dividing page
		func(c *Config) { c.SSDBytes = 100 },
		func(c *Config) { c.DRAMBytes = 100 },
		func(c *Config) { c.SSDCacheFraction = 0 },
		func(c *Config) { c.OverprovisionPct = 0 },
		func(c *Config) { c.MetaOverheadTraditional = 1.5 },
	}
	for i, mutate := range cases {
		cfg := testConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := NewFlatFlash(cfg); err == nil {
			t.Errorf("case %d: NewFlatFlash accepted", i)
		}
		if _, err := NewUnifiedMMap(cfg); err == nil {
			t.Errorf("case %d: NewUnifiedMMap accepted", i)
		}
	}
}

func TestNames(t *testing.T) {
	hs := newAll(t)
	want := []string{"FlatFlash", "UnifiedMMap", "TraditionalStack"}
	for i, h := range hs {
		if h.Name() != want[i] {
			t.Errorf("name = %q, want %q", h.Name(), want[i])
		}
	}
}

// TestNewByName checks New builds each hierarchy from its Name in any
// letter case, rejects an unknown name, and returns a nil interface (not a
// typed nil) when the config is bad.
func TestNewByName(t *testing.T) {
	for _, name := range []string{"FlatFlash", "UnifiedMMap", "TraditionalStack"} {
		for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
			h, err := New(spelling, testConfig())
			if err != nil {
				t.Fatalf("New(%q): %v", spelling, err)
			}
			if h.Name() != name {
				t.Errorf("New(%q).Name() = %q", spelling, h.Name())
			}
		}
		bad := testConfig()
		bad.PageSize = 0
		if h, err := New(name, bad); err == nil || h != nil {
			t.Errorf("New(%q) with a bad config = %v, %v; want nil and an error", name, h, err)
		}
	}
	for _, name := range []string{"", "ff", "Kind(7)", "FlatFlashX"} {
		if h, err := New(name, testConfig()); err == nil || h != nil {
			t.Errorf("New(%q) = %v, %v; want an unknown-hierarchy error", name, h, err)
		} else if !strings.Contains(err.Error(), "unknown hierarchy") {
			t.Errorf("New(%q) error %q does not name the unknown hierarchy", name, err)
		}
	}
}

func TestMmapBounds(t *testing.T) {
	for _, h := range newAll(t) {
		r, err := h.Mmap(64 << 10)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		if r.Size != 64<<10 {
			t.Fatalf("%s: size = %d", h.Name(), r.Size)
		}
		// Out-of-region access fails.
		buf := make([]byte, 8)
		if _, err := h.Read(r.End()+1<<30, buf); err == nil {
			t.Fatalf("%s: out-of-range read accepted", h.Name())
		}
		// Exhausting the SSD fails cleanly.
		if _, err := h.Mmap(1 << 40); err != ErrNoSSDSpace {
			t.Fatalf("%s: err = %v", h.Name(), err)
		}
	}
}

func TestReadYourWritesSimple(t *testing.T) {
	for _, h := range newAll(t) {
		r, _ := h.Mmap(256 << 10)
		want := []byte("flatflash stores bytes, not pages")
		if _, err := h.Write(r.Base+12345, want); err != nil {
			t.Fatalf("%s: write: %v", h.Name(), err)
		}
		got := make([]byte, len(want))
		if _, err := h.Read(r.Base+12345, got); err != nil {
			t.Fatalf("%s: read: %v", h.Name(), err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: round trip failed", h.Name())
		}
	}
}

func TestUnwrittenMemoryReadsZero(t *testing.T) {
	for _, h := range newAll(t) {
		r, _ := h.Mmap(64 << 10)
		buf := []byte{1, 2, 3, 4}
		h.Read(r.Base+100, buf)
		for _, b := range buf {
			if b != 0 {
				t.Fatalf("%s: fresh memory not zero", h.Name())
			}
		}
	}
}

// Accesses that span cache lines and page boundaries must still be exact.
func TestCrossPageAccess(t *testing.T) {
	for _, h := range newAll(t) {
		r, _ := h.Mmap(64 << 10)
		want := make([]byte, 10000) // spans 3 pages
		for i := range want {
			want[i] = byte(i * 7)
		}
		addr := r.Base + 4096 - 33 // straddle a page boundary
		h.Write(addr, want)
		got := make([]byte, len(want))
		h.Read(addr, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: cross-page round trip failed", h.Name())
		}
	}
}

// FlatFlash accesses SSD-resident pages without page faults; the baselines
// fault and move pages.
func TestFlatFlashAvoidsPageMovement(t *testing.T) {
	hs := newAll(t)
	// Touch 200 distinct pages once each (no reuse => no promotions).
	for _, h := range hs {
		r, _ := h.Mmap(1 << 20)
		buf := make([]byte, 8)
		for i := 0; i < 200; i++ {
			h.Read(r.Base+uint64(i)*4096, buf)
		}
	}
	ffMoves := hs[0].Counters().Get("page_movements")
	umMoves := hs[1].Counters().Get("page_movements")
	if ffMoves != 0 {
		t.Errorf("FlatFlash moved %d pages on single-touch workload", ffMoves)
	}
	if umMoves != 200 {
		t.Errorf("UnifiedMMap moved %d pages, want 200", umMoves)
	}
	if got := hs[1].Counters().Get("faults"); got != 200 {
		t.Errorf("UnifiedMMap faults = %d", got)
	}
	if hs[0].Counters().Get("mmio_reads") == 0 {
		t.Error("FlatFlash did not use MMIO")
	}
}

// Repeated access to the same page must trigger adaptive promotion in
// FlatFlash, after which accesses are DRAM-fast.
func TestPromotionOnReuse(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	r, _ := ff.Mmap(64 << 10)
	buf := make([]byte, 8)
	// Hammer one page far past the max threshold (7).
	for i := 0; i < 50; i++ {
		ff.Read(r.Base+uint64(i%64)*64, buf)
		ff.Advance(sim.Micros(1))
	}
	// Let the promotion complete.
	ff.Advance(sim.Micros(50))
	c := ff.Counters()
	if c.Get("promotions") == 0 {
		t.Fatal("no promotion despite heavy reuse")
	}
	if c.Get("promotion_completions") == 0 {
		t.Fatal("promotion never completed")
	}
	// Now the access is DRAM-resident: fast.
	lat, _ := ff.Read(r.Base, buf)
	if lat > sim.Micros(2) {
		t.Fatalf("post-promotion access took %v, want DRAM speed", lat)
	}
	if ff.Counters().Get("dram_reads") == 0 {
		t.Fatal("no DRAM reads after promotion")
	}
}

// Data written before promotion must be readable after promotion, and data
// written while DRAM-resident must survive eviction back to the SSD.
func TestDataSurvivesPromotionAndEviction(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBytes = 8 * 4096 // 8 frames: easy to force eviction
	ff, _ := NewFlatFlash(cfg)
	r, _ := ff.Mmap(1 << 20)

	tag := func(i int) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(i)*0x9E3779B97F4A7C15)
		return b
	}
	// Write tags to 64 pages, hammer each so they promote, forcing
	// evictions of earlier promotions (only 8 frames).
	for i := 0; i < 64; i++ {
		addr := r.Base + uint64(i)*4096
		ff.Write(addr, tag(i))
		buf := make([]byte, 8)
		for j := 0; j < 20; j++ {
			ff.Read(addr, buf)
			ff.Advance(sim.Micros(2))
		}
	}
	ff.Advance(sim.Micros(100))
	c := ff.Counters()
	if c.Get("promotions") < 10 {
		t.Fatalf("expected many promotions, got %d", c.Get("promotions"))
	}
	if c.Get("evictions") == 0 {
		t.Fatal("expected evictions with 8 frames")
	}
	// Every page must still hold its tag.
	for i := 0; i < 64; i++ {
		got := make([]byte, 8)
		ff.Read(r.Base+uint64(i)*4096, got)
		if !bytes.Equal(got, tag(i)) {
			t.Fatalf("page %d corrupted across promotion/eviction", i)
		}
	}
}

// Writes landing during an in-flight promotion (PLB redirect) must not be
// lost.
func TestWriteDuringPromotionNotLost(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	r, _ := ff.Mmap(64 << 10)
	buf := make([]byte, 8)
	// Drive the page to promotion threshold.
	for i := 0; i < 10; i++ {
		ff.Read(r.Base+uint64(i)*64, buf)
	}
	if ff.Counters().Get("promotions") == 0 {
		t.Skip("promotion did not trigger with this access pattern")
	}
	// Immediately write while the promotion is in flight (within 12.1µs).
	want := []byte("mid-flight!")
	ff.Write(r.Base+3000, want)
	ff.Advance(sim.Micros(50)) // complete the promotion
	got := make([]byte, len(want))
	ff.Read(r.Base+3000, got)
	if !bytes.Equal(got, want) {
		t.Fatal("store during promotion lost")
	}
}

func TestPersistRequiresPmemRegion(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	r, _ := ff.Mmap(64 << 10)
	if _, err := ff.Persist(r.Base, 64); err != ErrNotPersistent {
		t.Fatalf("err = %v, want ErrNotPersistent", err)
	}
	p, _ := ff.MmapPersistent(64 << 10)
	if _, err := ff.Persist(p.Base, 64); err != nil {
		t.Fatalf("persist on pmem region: %v", err)
	}
	if _, err := ff.Persist(p.End()+1<<30, 64); err != ErrOutOfRange {
		t.Fatalf("err = %v", err)
	}
	if lat, _ := ff.Persist(p.Base, 0); lat != 0 {
		t.Fatal("zero-size persist should be free")
	}
}

// Persistent-region pages must never be promoted (the P bit, §3.5).
func TestPersistBitBlocksPromotion(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	p, _ := ff.MmapPersistent(64 << 10)
	buf := make([]byte, 8)
	for i := 0; i < 200; i++ {
		ff.Read(p.Base+uint64(i%8)*64, buf)
		ff.Advance(sim.Micros(1))
	}
	if got := ff.Counters().Get("promotions"); got != 0 {
		t.Fatalf("pmem pages promoted %d times", got)
	}
}

// Crash semantics: pmem writes survive a crash; DRAM-promoted writes revert
// to the last SSD version.
func TestCrashRecoverSemantics(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	p, _ := ff.MmapPersistent(64 << 10)
	want := []byte("durable bytes")
	ff.Write(p.Base+128, want)
	ff.Persist(p.Base+128, len(want))

	ff.Crash()
	if _, err := ff.Read(p.Base, make([]byte, 8)); err != ErrCrashed {
		t.Fatalf("read while crashed: err = %v", err)
	}
	if _, err := ff.Mmap(4096); err != ErrCrashed {
		t.Fatal("mmap while crashed accepted")
	}
	ff.Recover()

	got := make([]byte, len(want))
	ff.Read(p.Base+128, got)
	if !bytes.Equal(got, want) {
		t.Fatal("persisted write lost after crash")
	}
}

func TestCrashLosesUnflushedDRAMWrites(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	r, _ := ff.Mmap(64 << 10)
	addr := r.Base + 64
	// Promote the page, then write to it in DRAM.
	buf := make([]byte, 8)
	for i := 0; i < 30; i++ {
		ff.Read(addr, buf)
		ff.Advance(sim.Micros(2))
	}
	ff.Advance(sim.Micros(50))
	if ff.Counters().Get("promotion_completions") == 0 {
		t.Skip("page did not promote")
	}
	ff.Write(addr, []byte("volatile"))
	ff.Crash()
	ff.Recover()
	got := make([]byte, 8)
	ff.Read(addr, got)
	if bytes.Equal(got, []byte("volatile")) {
		t.Fatal("DRAM write survived a crash without persistence")
	}
}

// The battery-backed SSD-Cache keeps dirty MMIO writes across a crash; the
// no-battery ablation loses them.
func TestBatteryBackedCacheSurvivesCrash(t *testing.T) {
	run := func(battery bool) []byte {
		cfg := testConfig()
		cfg.BatteryBacked = battery
		ff, _ := NewFlatFlash(cfg)
		p, _ := ff.MmapPersistent(64 << 10)
		ff.Write(p.Base+512, []byte{0xAB, 0xCD})
		// No Persist barrier needed for the data to be IN the cache; the
		// posted write already landed there.
		ff.Crash()
		ff.Recover()
		got := make([]byte, 2)
		ff.Read(p.Base+512, got)
		return got
	}
	if got := run(true); !bytes.Equal(got, []byte{0xAB, 0xCD}) {
		t.Fatal("battery-backed cache lost a posted write")
	}
	if got := run(false); bytes.Equal(got, []byte{0xAB, 0xCD}) {
		t.Fatal("no-battery ablation kept a volatile write")
	}
}

func TestBaselineCrashLosesUnsynced(t *testing.T) {
	um, _ := NewUnifiedMMap(testConfig())
	r, _ := um.MmapPersistent(64 << 10)
	um.Write(r.Base, []byte("unsynced"))
	um.Crash()
	um.Recover()
	got := make([]byte, 8)
	um.Read(r.Base, got)
	if bytes.Equal(got, []byte("unsynced")) {
		t.Fatal("unsynced baseline write survived crash")
	}
	// And with SyncPages it survives.
	um2, _ := NewUnifiedMMap(testConfig())
	r2, _ := um2.MmapPersistent(64 << 10)
	um2.Write(r2.Base, []byte("synced!!"))
	if _, err := um2.SyncPages(r2.Base, 1); err != nil {
		t.Fatal(err)
	}
	um2.Crash()
	um2.Recover()
	um2.Read(r2.Base, got)
	if !bytes.Equal(got, []byte("synced!!")) {
		t.Fatal("synced baseline write lost")
	}
}

// Byte-granular persistence must be far cheaper than block-granular for a
// small update — the core claim behind Figure 13.
func TestPersistCheaperThanBlockSync(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	p, _ := ff.MmapPersistent(64 << 10)
	ts, _ := NewTraditionalStack(testConfig())
	rb, _ := ts.MmapPersistent(64 << 10)

	small := make([]byte, 128) // a metadata-update-sized write
	wLat, _ := ff.Write(p.Base, small)
	pLat, _ := ff.Persist(p.Base, len(small))
	ffTotal := wLat + pLat

	wLat2, _ := ts.Write(rb.Base, small)
	sLat, _ := ts.Persist(rb.Base, len(small))
	tsTotal := wLat2 + sLat

	if ffTotal*2 >= tsTotal {
		t.Fatalf("byte persistence (%v) not clearly cheaper than block (%v)", ffTotal, tsTotal)
	}
}

// Latency sanity: FlatFlash SSD read ≈ MMIO read + flash miss; DRAM access
// far cheaper; baseline fault far more expensive than a DRAM hit.
func TestLatencyShapes(t *testing.T) {
	cfg := testConfig()
	ff, _ := NewFlatFlash(cfg)
	r, _ := ff.Mmap(1 << 20)
	buf := make([]byte, 8)
	lat, _ := ff.Read(r.Base, buf) // cold: cache miss + MMIO
	if lat < cfg.PCIe.MMIOReadLatency || lat > cfg.PCIe.MMIOReadLatency+cfg.FlashReadLatency+sim.Micros(2) {
		t.Fatalf("cold SSD read latency = %v", lat)
	}
	lat2, _ := ff.Read(r.Base+8, buf) // warm: SSD-Cache hit
	if lat2 > cfg.PCIe.MMIOReadLatency+sim.Micros(1) {
		t.Fatalf("warm SSD read latency = %v", lat2)
	}
	// Posted write is cheap.
	wlat, _ := ff.Write(r.Base+16, buf)
	if wlat > sim.Micros(1.5) {
		t.Fatalf("MMIO write latency = %v", wlat)
	}

	um, _ := NewUnifiedMMap(cfg)
	r2, _ := um.Mmap(1 << 20)
	flat, _ := um.Read(r2.Base, buf) // fault
	if flat < cfg.FlashReadLatency {
		t.Fatalf("fault latency = %v, implausibly low", flat)
	}
	hlat, _ := um.Read(r2.Base+8, buf) // now resident
	if hlat > sim.Micros(1) {
		t.Fatalf("resident read = %v", hlat)
	}
	// TraditionalStack fault costs strictly more (storage stack).
	tsys, _ := NewTraditionalStack(cfg)
	r3, _ := tsys.Mmap(1 << 20)
	tlat, _ := tsys.Read(r3.Base, buf)
	if tlat <= flat {
		t.Fatalf("TraditionalStack fault (%v) not slower than UnifiedMMap (%v)", tlat, flat)
	}
}

// TraditionalStack has fewer usable DRAM frames than UnifiedMMap (separate
// translation metadata), which shows up as more faults on a working set
// that fits UnifiedMMap's cache but not TraditionalStack's.
func TestMetadataOverheadCostsFrames(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMBytes = 64 * 4096
	um, _ := NewUnifiedMMap(cfg)
	ts, _ := NewTraditionalStack(cfg)
	for _, h := range []Hierarchy{um, ts} {
		r, _ := h.Mmap(1 << 20)
		buf := make([]byte, 8)
		// Working set of 60 pages, cycled twice.
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 60; i++ {
				h.Read(r.Base+uint64(i)*4096, buf)
			}
		}
	}
	if um.Counters().Get("faults") >= ts.Counters().Get("faults") {
		t.Fatalf("UnifiedMMap faults (%d) not fewer than TraditionalStack (%d)",
			um.Counters().Get("faults"), ts.Counters().Get("faults"))
	}
}

// Property: for random interleavings of reads/writes at random addresses,
// all three hierarchies behave exactly like flat shadow memory.
func TestHierarchyShadowMemoryProperty(t *testing.T) {
	mk := []func() (Hierarchy, error){
		func() (Hierarchy, error) { return NewFlatFlash(testConfig()) },
		func() (Hierarchy, error) { return NewUnifiedMMap(testConfig()) },
		func() (Hierarchy, error) { return NewTraditionalStack(testConfig()) },
	}
	for i, m := range mk {
		f := func(seed uint64) bool {
			h, err := m()
			if err != nil {
				return false
			}
			const regionSize = 256 << 10
			r, err := h.Mmap(regionSize)
			if err != nil {
				return false
			}
			shadow := make([]byte, regionSize)
			rng := sim.NewRNG(seed)
			for op := 0; op < 500; op++ {
				off := rng.Uint64n(regionSize - 256)
				n := rng.Intn(256) + 1
				if rng.Intn(2) == 0 {
					data := make([]byte, n)
					for j := range data {
						data[j] = byte(rng.Uint64())
					}
					if _, err := h.Write(r.Base+off, data); err != nil {
						return false
					}
					copy(shadow[off:], data)
				} else {
					got := make([]byte, n)
					if _, err := h.Read(r.Base+off, got); err != nil {
						return false
					}
					if !bytes.Equal(got, shadow[off:int(off)+n]) {
						return false
					}
				}
				if rng.Intn(16) == 0 {
					h.Advance(sim.Micros(20)) // let promotions complete
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
			t.Fatalf("hierarchy %d: %v", i, err)
		}
	}
}

// Ablation: disabling the PLB stalls promotions on the critical path, so a
// high-reuse workload gets slower.
func TestPLBAblationSlower(t *testing.T) {
	run := func(usePLB bool) sim.Time {
		cfg := testConfig()
		cfg.UsePLB = usePLB
		ff, _ := NewFlatFlash(cfg)
		r, _ := ff.Mmap(1 << 20)
		buf := make([]byte, 8)
		for p := 0; p < 50; p++ {
			for j := 0; j < 10; j++ {
				ff.Read(r.Base+uint64(p)*4096+uint64(j)*64, buf)
			}
		}
		return ff.Now()
	}
	with := run(true)
	without := run(false)
	if without <= with {
		t.Fatalf("no-PLB (%v) not slower than PLB (%v)", without, with)
	}
}

// Ablation: PromoteNever keeps everything on the SSD (no page movements);
// PromoteAlways behaves like eager paging (many promotions).
func TestPromotionModeAblations(t *testing.T) {
	runMode := func(m PromotionMode) *FlatFlash {
		cfg := testConfig()
		cfg.Promotion = m
		ff, _ := NewFlatFlash(cfg)
		r, _ := ff.Mmap(1 << 20)
		buf := make([]byte, 8)
		for i := 0; i < 100; i++ {
			ff.Read(r.Base+uint64(i%20)*4096, buf)
			ff.Advance(sim.Micros(2))
		}
		return ff
	}
	never := runMode(PromoteNever)
	if never.Counters().Get("promotions") != 0 {
		t.Fatal("PromoteNever promoted")
	}
	always := runMode(PromoteAlways)
	if always.Counters().Get("promotions") < 15 {
		t.Fatalf("PromoteAlways promoted only %d", always.Counters().Get("promotions"))
	}
	adaptive := runMode(PromoteAdaptive)
	if a := adaptive.Counters().Get("promotions"); a > always.Counters().Get("promotions") {
		t.Fatalf("adaptive (%d) promoted more than always (%d)", a, always.Counters().Get("promotions"))
	}
}

func TestCountersExposeSubstrates(t *testing.T) {
	ff, _ := NewFlatFlash(testConfig())
	r, _ := ff.Mmap(64 << 10)
	ff.Write(r.Base, []byte{1})
	c := ff.Counters()
	for _, name := range []string{"pcie_mmio_writes", "pcie_traffic_bytes", "tlb_misses"} {
		if c.Get(name) == 0 {
			t.Errorf("counter %s = 0", name)
		}
	}
	if ff.HitRatio() < 0 || ff.HitRatio() > 1 {
		t.Error("hit ratio out of range")
	}
	_ = ff.WriteAmplification()
}
