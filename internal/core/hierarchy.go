package core

import (
	"errors"
	"sort"

	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
)

// Errors shared by the hierarchy implementations.
var (
	ErrOutOfRange    = errors.New("core: access outside mapped region")
	ErrNoSSDSpace    = errors.New("core: SSD region exhausted")
	ErrNotPersistent = errors.New("core: address is not in a persistent region")
	ErrCrashed       = errors.New("core: system is crashed; call Recover")
)

// Region is a mapped range of the unified address space.
type Region struct {
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether [addr, addr+n) lies inside the region.
func (r Region) Contains(addr uint64, n int) bool {
	return addr >= r.Base && addr+uint64(n) <= r.End()
}

// Hierarchy is the unified memory interface every experiment drives. The
// three implementations are FlatFlash (this paper), UnifiedMMap
// (FlashMap-style unified translation + paging), and TraditionalStack
// (separate translation layers + block storage stack + paging).
//
// Accesses are byte-granular at arbitrary virtual addresses within mapped
// regions; implementations split them into cache-line requests. Every
// operation returns the simulated latency experienced by the calling
// thread; background work (promotions, evictions, GC) consumes device time
// but not caller latency, exactly as in the paper.
type Hierarchy interface {
	// Name identifies the system in reports ("FlatFlash", "UnifiedMMap",
	// "TraditionalStack").
	Name() string

	// Mmap maps size bytes of SSD-backed memory and returns the region.
	Mmap(size uint64) (Region, error)

	// MmapPersistent creates a persistent memory region (§3.5's
	// create_pmem_region). On FlatFlash its pages carry the Persist PTE bit
	// (never promoted; stores reach the battery-backed SSD-Cache). On the
	// baselines the region is ordinary memory whose durability needs
	// SyncPages (block-interface persistence), which is exactly the design
	// difference the paper's §5.5/§5.6 experiments measure.
	MmapPersistent(size uint64) (Region, error)

	// Read copies len(buf) bytes at addr into buf.
	Read(addr uint64, buf []byte) (sim.Duration, error)

	// Write stores data at addr.
	Write(addr uint64, data []byte) (sim.Duration, error)

	// Persist makes the byte range [addr, addr+size) durable. FlatFlash
	// flushes the covered cache lines over MMIO and issues one
	// write-verify read as the ordering point (§3.5, Figure 5). Baselines
	// write back the covered pages through the block interface.
	Persist(addr uint64, size int) (sim.Duration, error)

	// SyncPages durably writes n whole pages starting at the page
	// containing addr through the storage interface (fsync-like). Used by
	// the file-system and database case studies for their block-interface
	// configurations.
	SyncPages(addr uint64, n int) (sim.Duration, error)

	// Now returns the hierarchy's virtual clock (sum of all charged
	// latencies plus background settling).
	Now() sim.Time

	// Advance moves the virtual clock forward without an access (think
	// time); background machinery (promotion completions) observes it.
	Advance(d sim.Duration)

	// Drain writes all dirty volatile state (host DRAM pages, dirty
	// SSD-Cache entries) down to flash. Experiments call it before
	// comparing flash wear so that deferred write-back does not hide
	// traffic one system has merely postponed.
	Drain()

	// Crash power-fails the system: volatile state (host DRAM, in-flight
	// promotions) is lost; the battery-backed persistence domain survives.
	// Recover brings the system back so reads reflect what survived.
	Crash()
	Recover()

	// Counters returns a snapshot of event counters, including substrate
	// statistics (cache hits, page movements, flash wear, I/O traffic).
	Counters() *stats.Counters

	// Instrument attaches telemetry: tr records per-access spans and events
	// from every layer (translation, PCIe, SSD-Cache, FTL, DRAM,
	// promotion), and reg gains this hierarchy's gauges (hit ratios, DRAM
	// occupancy, write amplification, promotion rate) sampled on virtual-
	// time epochs. Either argument may be nil; a nil tracer detaches an
	// earlier one, and with both nil the access path stays allocation-free.
	// Call before driving accesses.
	Instrument(tr *telemetry.Tracer, reg *telemetry.Registry)
}

// sortedFrames returns m's keys in ascending order. Drain and Crash walk
// the frame map through it so that map-iteration order never leaks into
// device state (flash allocation, wear) or telemetry output — two runs with
// the same seed must produce byte-identical dumps.
//
//flatflash:deterministic
func sortedFrames[V any](m map[int]V) []int {
	frames := make([]int, 0, len(m))
	for f := range m {
		frames = append(frames, f)
	}
	sort.Ints(frames)
	return frames
}

// lineChunk splits the first piece off an access of n bytes at addr: the
// piece's page vpn, its offset off in that page, and its size, which stops
// at the first cache-line boundary or after n bytes. A piece never crosses
// a page, because Validate requires PageSize to be a multiple of
// CacheLineSize.
//
//flatflash:hotpath
func lineChunk(addr uint64, n, pageSize, lineSize int) (vpn uint64, off, size int) {
	off = int(addr % uint64(pageSize))
	return addr / uint64(pageSize), off, min(lineSize-off%lineSize, n)
}
