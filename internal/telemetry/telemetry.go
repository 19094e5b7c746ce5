// Package telemetry is the simulator's observability layer: a span tracer
// keyed to the virtual clock (sim.Time), a metrics registry with gauges and
// epoch-sampled time series, a latency attribution engine, an anomaly flight
// recorder, and exporters to Chrome trace-event JSON (loadable in Perfetto at
// ui.perfetto.dev) and compact JSONL streams.
//
// Every hierarchy layer — page-table/TLB lookup, PCIe MMIO transactions,
// SSD-Cache probes, FTL/flash service, DRAM access, promotion flights —
// reports each interval once, through a *Sink's Observe. The Sink fans the
// one event out to the run's tracer, flight ring and attribution engine,
// guided by a per-kind table (export name, charged component, traced or
// not). Instrumentation is off by default: a nil *Sink (and a nil
// *Registry) makes every hook a single pointer comparison, so the disabled
// path adds zero allocations and no measurable cost per access. When
// enabled, the Tracer records spans into a preallocated ring buffer, so the
// enabled path is allocation-free per span too; only export allocates.
//
// All timestamps are virtual time. Two runs with the same seed therefore
// produce byte-identical trace and metrics output, which makes telemetry
// dumps diffable artifacts for regression hunting.
package telemetry

import (
	"fmt"

	"flatflash/internal/sim"
)

// SpanKind identifies what a span or event measured. The taxonomy follows
// the paper's component breakdown (Table 2): each kind corresponds to one
// stage an access can pass through in the unified hierarchy.
type SpanKind uint8

// Span kinds (durations) and event kinds (instants).
const (
	// SpanAccess covers one whole Hierarchy.Read/Write call on the CPU
	// track; inner stages nest inside it. Arg is the byte count.
	SpanAccess SpanKind = iota
	// SpanTranslate is a page-table walk after a TLB miss. Arg is the VPN.
	SpanTranslate
	// SpanDRAM is a host-DRAM service of the access. Arg is the frame.
	SpanDRAM
	// SpanHostCacheHit is a coherent host-cache hit (§3.1). Arg is the LPN.
	SpanHostCacheHit
	// SpanPLBRedirect is an access served by an in-flight promotion's DRAM
	// destination through the PLB (Figure 4). Arg is the LPN.
	SpanPLBRedirect
	// SpanCacheProbe is an SSD-Cache probe (hit service or miss fill wait)
	// inside the SSD controller. Arg is the LPN.
	SpanCacheProbe
	// SpanMMIORead is a non-posted PCIe cache-line read round trip. Arg is
	// 1 when the packet carried the Persist attribute bit, else 0.
	SpanMMIORead
	// SpanMMIOWrite is a posted PCIe cache-line write. Arg as SpanMMIORead.
	SpanMMIOWrite
	// SpanDMAPage is one page DMA transfer over the link.
	SpanDMAPage
	// SpanFlashRead is a NAND page read inside the device. Arg is the LPN.
	SpanFlashRead
	// SpanFlashWrite is a NAND page program. Arg is the LPN.
	SpanFlashWrite
	// SpanGC is one garbage-collection pass (victim read-modify-write and
	// erase). Arg is the victim block.
	SpanGC
	// SpanPromotion is an in-flight page promotion from SSD-Cache to host
	// DRAM, spanning start to deadline on the background track. Arg is the
	// LPN.
	SpanPromotion
	// SpanPromotionStall is the no-PLB ablation: the CPU stalls for the
	// whole promotion. Arg is the LPN.
	SpanPromotionStall
	// SpanPageFault is a baseline page fault (trap + handler + migration).
	// Arg is the faulting VPN.
	SpanPageFault
	// SpanPersist is a byte-granular persistence barrier (§3.5, Figure 5).
	// Arg is the number of cache lines flushed.
	SpanPersist
	// SpanSync is a page-granularity durable write (fsync-like). Arg is the
	// page count.
	SpanSync

	// Charge-only kinds: intervals the attribution engine charges but the
	// tracer and flight ring never record (no span existed for them).

	// ChargeNAND is NAND channel/die service of a data page (read or
	// program), charged by the flash device.
	ChargeNAND
	// ChargeNANDMap is NAND service of a translation page (demand-paged
	// map fetch or write-back).
	ChargeNANDMap
	// ChargeMapHit is a cached-map-table hit in the demand-paged FTL.
	ChargeMapHit
	// ChargeGCStall is garbage-collection time a host write waits for.
	ChargeGCStall
	// ChargeFlush is the CPU's cache-line flush ahead of a persist barrier.
	ChargeFlush
	// ChargeSyncTranslate is the address translation of each page a
	// page-granularity sync walks.
	ChargeSyncTranslate

	// Event kinds (EvCacheHit onward) are recorded as instants at start.

	// EvCacheHit and EvCacheMiss are SSD-Cache lookup outcomes. Arg is the
	// LPN. A hit's end-start is the cache's access cost, charged to
	// CompCacheFill.
	EvCacheHit
	EvCacheMiss
	// EvCacheEvict is an SSD-Cache eviction. Arg is the victim LPN.
	EvCacheEvict
	// EvPromoteTrigger marks Algorithm 1 firing for a page. Arg is the LPN.
	EvPromoteTrigger
	// EvPromoteComplete marks a promotion finalized (PTE/TLB updated). Arg
	// is the LPN.
	EvPromoteComplete
	// EvThreshold marks the adaptive policy changing its promotion
	// threshold. Arg is the new threshold.
	EvThreshold
	// EvEpochReset marks an Algorithm 1 adaptation-epoch reset.
	EvEpochReset
	// EvFaultCrash marks an injected power-loss firing. Arg is the scheduled
	// virtual time in nanoseconds.
	EvFaultCrash
	// EvFaultNAND marks an injected NAND program (arg 0) or erase (arg 1)
	// failure.
	EvFaultNAND
	// EvFaultMMIO marks an injected dropped (arg 0) or torn (arg 1) MMIO
	// cache-line write.
	EvFaultMMIO
	// EvFaultBattery marks a battery-drain truncation at crash time. Arg is
	// the number of dirty pages that survived.
	EvFaultBattery

	numKinds
)

// kindInfo is one kind's row in the instrumentation table: its export name,
// the attribution component Observe charges end-start to (noComponent for
// none), and whether the tracer and flight ring record it.
type kindInfo struct {
	name   string
	comp   Component
	traced bool
}

// noComponent marks a kind that charges nothing.
const noComponent = NumComponents

var kinds = [numKinds]kindInfo{
	SpanAccess:          {"access", noComponent, true},
	SpanTranslate:       {"translate", CompTLB, true},
	SpanDRAM:            {"dram", CompDRAM, true},
	SpanHostCacheHit:    {"hostcache_hit", CompHostCache, true},
	SpanPLBRedirect:     {"plb_redirect", CompPLB, true},
	SpanCacheProbe:      {"ssdcache_probe", noComponent, true},
	SpanMMIORead:        {"mmio_read", CompLink, true},
	SpanMMIOWrite:       {"mmio_write", CompLink, true},
	SpanDMAPage:         {"dma_page", CompLink, true},
	SpanFlashRead:       {"flash_read", noComponent, true},
	SpanFlashWrite:      {"flash_write", noComponent, true},
	SpanGC:              {"gc", noComponent, true},
	SpanPromotion:       {"promotion", CompPromote, true},
	SpanPromotionStall:  {"promotion_stall", noComponent, true},
	SpanPageFault:       {"page_fault", noComponent, true},
	SpanPersist:         {"persist_barrier", noComponent, true},
	SpanSync:            {"sync_pages", noComponent, true},
	ChargeNAND:          {"nand", CompFlash, false},
	ChargeNANDMap:       {"nand_map", CompMapFetch, false},
	ChargeMapHit:        {"map_hit", CompMapFetch, false},
	ChargeGCStall:       {"gc_stall", CompGC, false},
	ChargeFlush:         {"persist_flush", CompPersist, false},
	ChargeSyncTranslate: {"sync_translate", CompTLB, false},
	EvCacheHit:          {"cache_hit", CompCacheFill, true},
	EvCacheMiss:         {"cache_miss", noComponent, true},
	EvCacheEvict:        {"cache_evict", noComponent, true},
	EvPromoteTrigger:    {"promote_trigger", noComponent, true},
	EvPromoteComplete:   {"promote_complete", noComponent, true},
	EvThreshold:         {"threshold", noComponent, true},
	EvEpochReset:        {"epoch_reset", noComponent, true},
	EvFaultCrash:        {"fault_crash", noComponent, true},
	EvFaultNAND:         {"fault_nand", noComponent, true},
	EvFaultMMIO:         {"fault_mmio", noComponent, true},
	EvFaultBattery:      {"fault_battery", noComponent, true},
}

// String returns the kind's export name.
func (k SpanKind) String() string {
	if int(k) < len(kinds) && kinds[k].name != "" {
		return kinds[k].name
	}
	return "unknown"
}

// Track is the timeline a span belongs to. Tracks map to Perfetto threads,
// so spans on the same track nest by time containment while different
// hardware resources get parallel timelines.
type Track uint8

// Tracks, one per modeled resource.
const (
	TrackCPU   Track = iota // the accessing thread's critical path
	TrackPCIe               // link transactions (occupancy + round trips)
	TrackSSD                // SSD-Cache and promotion-policy activity
	TrackFlash              // NAND device service and GC
	TrackPromo              // background promotion flights
	numTracks
)

var trackNames = [numTracks]string{
	TrackCPU:   "cpu",
	TrackPCIe:  "pcie",
	TrackSSD:   "ssd-cache",
	TrackFlash: "flash",
	TrackPromo: "promotion",
}

// String returns the track's display name. Tracks beyond the fixed set are
// tenant CPU timelines from multi-tenant runs (see TenantTrack).
func (t Track) String() string {
	if int(t) < len(trackNames) {
		return trackNames[t]
	}
	return fmt.Sprintf("tenant%d-cpu", int(t)-int(numTracks)+1)
}

// TenantTrack returns the CPU critical-path track for tenant id in a
// multi-tenant run. Tenant 0 is the hierarchy's own actor and keeps
// TrackCPU; each additional tenant gets a dedicated dynamic track so
// Perfetto renders one timeline per tenant and every span is labeled with
// its tenant. Ids beyond the track space fold deterministically onto the
// available dynamic tracks.
func TenantTrack(id int) Track {
	if id <= 0 {
		return TrackCPU
	}
	span := 256 - int(numTracks)
	return numTracks + Track((id-1)%span)
}

// Span is one recorded span or instant event.
type Span struct {
	Seq     uint64 // record order, strictly increasing
	Kind    SpanKind
	Track   Track
	Instant bool // true for Event records (Dur is 0)
	Start   sim.Time
	Dur     sim.Duration
	Arg     int64
}

// End returns the span's end time.
func (s Span) End() sim.Time { return s.Start.Add(s.Dur) }

// DefaultTracerCapacity is the default ring size: the newest spans are kept
// and older ones are dropped (counted in Dropped) once the ring wraps.
const DefaultTracerCapacity = 1 << 17

// Tracer collects the spans a Sink records into a fixed-capacity ring
// buffer. Recording never allocates; when the ring is full the oldest spans
// are overwritten.
type Tracer struct {
	ring []Span
	seq  uint64
}

// NewTracer returns a Tracer keeping the most recent capacity spans
// (DefaultTracerCapacity if capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCapacity
	}
	return &Tracer{ring: make([]Span, 0, capacity)}
}

func (t *Tracer) record(s Span) {
	s.Seq = t.seq
	t.seq++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s)
		return
	}
	t.ring[int(s.Seq)%cap(t.ring)] = s
}

// Recorded returns how many spans were recorded in total (including ones
// the ring has since overwritten).
func (t *Tracer) Recorded() uint64 { return t.seq }

// Dropped returns how many spans were overwritten by ring wrap-around.
func (t *Tracer) Dropped() uint64 {
	if t.seq <= uint64(cap(t.ring)) {
		return 0
	}
	return t.seq - uint64(cap(t.ring))
}

// Spans returns the retained spans in record order (oldest first).
func (t *Tracer) Spans() []Span {
	out := make([]Span, 0, len(t.ring))
	if t.seq <= uint64(cap(t.ring)) {
		return append(out, t.ring...)
	}
	head := int(t.seq) % cap(t.ring) // oldest retained slot
	out = append(out, t.ring[head:]...)
	return append(out, t.ring[:head]...)
}

// Reset drops all recorded spans, keeping the buffer capacity.
func (t *Tracer) Reset() {
	t.ring = t.ring[:0]
	t.seq = 0
}
