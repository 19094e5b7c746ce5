package flatflash

import (
	"errors"
	"fmt"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Kind selects which of the paper's three systems to build.
type Kind int

// System kinds.
const (
	// KindFlatFlash is the paper's system: byte-addressable SSD, adaptive
	// promotion, PLB, byte-granular persistence.
	KindFlatFlash Kind = iota
	// KindUnifiedMMap is the FlashMap-style baseline: unified address
	// translation but page-granular migration on every SSD access.
	KindUnifiedMMap
	// KindTraditionalStack is the conventional baseline: separate
	// translation layers and the block storage stack on the fault path.
	KindTraditionalStack
)

// String returns the system's display name.
func (k Kind) String() string {
	switch k {
	case KindFlatFlash:
		return "FlatFlash"
	case KindUnifiedMMap:
		return "UnifiedMMap"
	case KindTraditionalStack:
		return "TraditionalStack"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config configures a System. Zero-valued fields take the paper's defaults.
type Config struct {
	// SSDBytes is the byte-addressable SSD capacity. Required.
	SSDBytes uint64
	// DRAMBytes is the host DRAM dedicated to the unified region. Required.
	DRAMBytes uint64
	// Kind selects FlatFlash (default) or one of the two baselines.
	Kind Kind
	// FlashLatency overrides the NAND page access latency (default 20 µs;
	// the paper sweeps 5–20 µs in Figure 14d).
	FlashLatency time.Duration
	// SSDCacheFraction overrides the SSD-Cache size as a fraction of
	// SSDBytes (default 0.00125, the paper's 0.125%).
	SSDCacheFraction float64
	// DisableAdaptivePromotion switches FlatFlash to a fixed promotion
	// threshold (ablation).
	DisableAdaptivePromotion bool
	// DisablePLB makes promotions stall the CPU (ablation).
	DisablePLB bool
	// LRUSSDCache replaces RRIP with LRU in the SSD-Cache (ablation).
	LRUSSDCache bool
	// NoBattery removes the SSD-Cache's battery backing, so posted writes
	// that have not reached flash are lost on Crash (ablation).
	NoBattery bool
	// CoherentHostCacheLines > 0 models a cache-coherent interconnect
	// (CAPI/CCIX/OpenCAPI, §3.1): the CPU may cache that many SSD-resident
	// lines, so repeated reads skip the MMIO round trip. 0 (default) is
	// plain PCIe, where MMIO is uncacheable.
	CoherentHostCacheLines int
}

// Errors returned by the public API.
var (
	ErrOutOfRange    = core.ErrOutOfRange
	ErrNoSSDSpace    = core.ErrNoSSDSpace
	ErrNotPersistent = core.ErrNotPersistent
	ErrCrashed       = core.ErrCrashed
)

// System is one simulated machine with a unified memory-storage hierarchy.
// A System is not safe for concurrent use; the simulator's notion of
// concurrency is virtual time (see internal/txdb for the multi-worker
// modeling the database experiments use).
type System struct {
	h    core.Hierarchy
	kind Kind
}

// New builds a System from cfg.
func New(cfg Config) (*System, error) {
	if cfg.SSDBytes == 0 || cfg.DRAMBytes == 0 {
		return nil, errors.New("flatflash: SSDBytes and DRAMBytes are required")
	}
	cc := core.DefaultConfig(cfg.SSDBytes, cfg.DRAMBytes)
	if cfg.FlashLatency > 0 {
		cc.FlashReadLatency = sim.Duration(cfg.FlashLatency.Nanoseconds())
		cc.FlashProgramLatency = sim.Duration(cfg.FlashLatency.Nanoseconds())
	}
	if cfg.SSDCacheFraction > 0 {
		cc.SSDCacheFraction = cfg.SSDCacheFraction
	}
	if cfg.DisableAdaptivePromotion {
		cc.Promotion = core.PromoteFixed
	}
	cc.UsePLB = !cfg.DisablePLB
	if cfg.LRUSSDCache {
		cc.SSDCachePolicy = 1 // ssdcache.LRU
	}
	cc.BatteryBacked = !cfg.NoBattery
	cc.HostCacheLines = cfg.CoherentHostCacheLines

	h, err := core.New(cfg.Kind.String(), cc)
	if err != nil {
		return nil, err
	}
	return &System{h: h, kind: cfg.Kind}, nil
}

// Kind returns which system this is.
func (s *System) Kind() Kind { return s.kind }

// EnableLatencyAttribution attaches a latency attribution engine to a
// FlatFlash system: every access accumulates a per-component latency
// breakdown (TLB, DRAM, PCIe link, flash service, ...) into histograms with
// SLO burn accounting (slo <= 0 disables the SLO). It returns the engine for
// reports (WriteBudget, WriteJSONL). Only KindFlatFlash supports
// attribution; other kinds return nil and are unchanged.
func (s *System) EnableLatencyAttribution(slo time.Duration) *telemetry.Attribution {
	ff, ok := s.h.(*core.FlatFlash)
	if !ok {
		return nil
	}
	a := telemetry.NewAttribution(sim.Duration(slo.Nanoseconds()), 0)
	ff.SetAttribution(a)
	return a
}

// Mmap maps size bytes of SSD-backed unified memory.
func (s *System) Mmap(size uint64) (*Region, error) {
	r, err := s.h.Mmap(size)
	if err != nil {
		return nil, err
	}
	return &Region{sys: s, r: r}, nil
}

// MmapPersistent creates a byte-granular persistent memory region (the
// paper's create_pmem_region, §3.5). On the baselines the region is plain
// memory whose durability requires Sync.
func (s *System) MmapPersistent(size uint64) (*Region, error) {
	r, err := s.h.MmapPersistent(size)
	if err != nil {
		return nil, err
	}
	return &Region{sys: s, r: r}, nil
}

// Elapsed returns the virtual time this system has consumed.
func (s *System) Elapsed() time.Duration {
	return time.Duration(int64(s.h.Now()))
}

// Idle advances virtual time without memory traffic (think time); in-flight
// promotions complete during it.
func (s *System) Idle(d time.Duration) {
	s.h.Advance(sim.Duration(d.Nanoseconds()))
}

// Crash simulates power failure: volatile state is lost, the persistence
// domain survives. Recover restores operation.
func (s *System) Crash() { s.h.Crash() }

// Recover brings a crashed system back online.
func (s *System) Recover() { s.h.Recover() }

// Stats returns a snapshot of the hierarchy's event counters (page
// movements, MMIO traffic, cache hits, flash wear, ...).
func (s *System) Stats() map[string]int64 {
	c := s.h.Counters()
	out := make(map[string]int64)
	for _, n := range c.Names() {
		out[n] = c.Get(n)
	}
	return out
}

// Region is a mapped range of unified memory.
type Region struct {
	sys *System
	r   core.Region
}

// Size returns the region size in bytes.
func (r *Region) Size() uint64 { return r.r.Size }

// ReadAt copies len(p) bytes at offset off into p, returning the simulated
// latency the access took.
func (r *Region) ReadAt(p []byte, off int64) (time.Duration, error) {
	if err := r.check(off, len(p)); err != nil {
		return 0, err
	}
	d, err := r.sys.h.Read(r.r.Base+uint64(off), p)
	return time.Duration(int64(d)), err
}

// WriteAt stores p at offset off, returning the simulated latency.
func (r *Region) WriteAt(p []byte, off int64) (time.Duration, error) {
	if err := r.check(off, len(p)); err != nil {
		return 0, err
	}
	d, err := r.sys.h.Write(r.r.Base+uint64(off), p)
	return time.Duration(int64(d)), err
}

// Persist makes [off, off+n) durable. On FlatFlash this is byte-granular
// (cache-line flushes + one write-verify read); on the baselines it falls
// back to page-granularity block writes.
func (r *Region) Persist(off int64, n int) (time.Duration, error) {
	if err := r.check(off, n); err != nil {
		return 0, err
	}
	d, err := r.sys.h.Persist(r.r.Base+uint64(off), n)
	return time.Duration(int64(d)), err
}

// Sync durably writes the n pages covering offset off through the storage
// interface (fsync-like, page granularity).
func (r *Region) Sync(off int64, n int) (time.Duration, error) {
	if off < 0 || off >= int64(r.r.Size) {
		return 0, ErrOutOfRange
	}
	d, err := r.sys.h.SyncPages(r.r.Base+uint64(off), n)
	return time.Duration(int64(d)), err
}

func (r *Region) check(off int64, n int) error {
	if off < 0 || n < 0 || uint64(off)+uint64(n) > r.r.Size {
		return ErrOutOfRange
	}
	return nil
}
