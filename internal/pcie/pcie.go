// Package pcie models the PCIe interconnect between the host bridge and the
// byte-addressable SSD (§3.1): MMIO cache-line reads (non-posted round
// trips, 4.8 µs), MMIO cache-line writes (posted transactions that complete
// at the SSD's write buffer, 0.6 µs), and DMA page transfers used by page
// migration and promotion. Packets carry the Persist attribute bit the
// paper smuggles through the PCIe Attribute field (§3.5).
//
// Latencies are the paper's Table 2 measurements from its Virtex-7
// reference design. Link occupancy (much shorter than the round-trip
// latency) is modeled with a sim.Resource so concurrent requesters queue
// realistically without serializing full round trips.
package pcie

import (
	"errors"
	"fmt"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Config holds link timing.
type Config struct {
	MMIOReadLatency  sim.Duration // non-posted round trip for one cache line
	MMIOWriteLatency sim.Duration // posted write to the SSD write buffer
	DMAPageLatency   sim.Duration // one 4 KB page transfer
	// Occupancy is how long one transaction holds the link (bandwidth
	// model); round-trip latency overlaps across transactions.
	CacheLineOccupancy sim.Duration
	PageOccupancy      sim.Duration
}

// DefaultConfig returns the paper's measured latencies (Table 2) and a
// 3.2 GB/s-class occupancy model.
func DefaultConfig() Config {
	return Config{
		MMIOReadLatency:    sim.Micros(4.8),
		MMIOWriteLatency:   sim.Micros(0.6),
		DMAPageLatency:     sim.Micros(1.3),
		CacheLineOccupancy: 20 * sim.Nanosecond,
		PageOccupancy:      sim.Micros(1.3),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MMIOReadLatency <= 0 || c.MMIOWriteLatency <= 0 || c.DMAPageLatency <= 0 {
		return errors.New("pcie: non-positive latency")
	}
	if c.CacheLineOccupancy <= 0 || c.PageOccupancy <= 0 {
		return fmt.Errorf("pcie: non-positive occupancy")
	}
	return nil
}

// Link is one PCIe link.
type Link struct {
	cfg    Config
	res    *sim.Resource
	obs    *telemetry.Sink // nil when instrumentation is disabled
	faults *fault.Engine   // nil = no injection

	mmioReads, mmioWrites, dmaPages, persistTagged int64
	mmioDropped, mmioTorn                          int64
}

// NewLink builds a link.
func NewLink(cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Link{cfg: cfg, res: sim.NewResource()}, nil
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// SetSink attaches the instrumentation sink: every link transaction reports
// its issue-to-completion interval (occupancy queueing included) on the PCIe
// track, charged to the link component. A nil sink disables it.
func (l *Link) SetSink(s *telemetry.Sink) { l.obs = s }

// SetFaults attaches a fault-injection engine that can drop or tear posted
// MMIO writes (nil disables injection).
func (l *Link) SetFaults(e *fault.Engine) { l.faults = e }

// MMIORead performs a non-posted cache-line read issued at now; the
// returned time is when the completion arrives back at the host.
// persist indicates the packet carried the P attribute bit.
func (l *Link) MMIORead(now sim.Time, persist bool) sim.Time {
	start, _ := l.res.Acquire(now, l.cfg.CacheLineOccupancy)
	l.mmioReads++
	if persist {
		l.persistTagged++
	}
	done := start.Add(l.cfg.MMIOReadLatency)
	l.obs.Observe(telemetry.SpanMMIORead, telemetry.TrackPCIe, now, done, persistArg(persist))
	return done
}

// MMIOWrite performs a posted cache-line write issued at now; the returned
// time is when the data has reached the SSD's write buffer (the posted
// transaction's completion point, §5: "the latency of the write transaction
// is significantly lower than that of the read transaction").
func (l *Link) MMIOWrite(now sim.Time, persist bool) sim.Time {
	done, _ := l.MMIOWriteChecked(now, persist)
	return done
}

// MMIOWriteChecked is MMIOWrite plus the fault outcome of the posted packet:
// with a fault engine attached, the write may be dropped (never reaches the
// SSD) or torn (only the first half of the payload lands). Posted writes are
// fire-and-forget, so the host-side timing is identical either way — only
// the SSD-side effect differs, and the caller applies it.
func (l *Link) MMIOWriteChecked(now sim.Time, persist bool) (sim.Time, fault.WriteOutcome) {
	start, _ := l.res.Acquire(now, l.cfg.CacheLineOccupancy)
	l.mmioWrites++
	if persist {
		l.persistTagged++
	}
	outcome := l.faults.MMIOWrite(now)
	switch outcome {
	case fault.WriteDropped:
		l.mmioDropped++
	case fault.WriteTorn:
		l.mmioTorn++
	}
	done := start.Add(l.cfg.MMIOWriteLatency)
	l.obs.Observe(telemetry.SpanMMIOWrite, telemetry.TrackPCIe, now, done, persistArg(persist))
	return done, outcome
}

// DMAPage transfers one page across the link (page migration in the
// baselines, block I/O data movement).
func (l *Link) DMAPage(now sim.Time) sim.Time {
	start, _ := l.res.Acquire(now, l.cfg.PageOccupancy)
	l.dmaPages++
	done := start.Add(l.cfg.DMAPageLatency)
	l.obs.Observe(telemetry.SpanDMAPage, telemetry.TrackPCIe, now, done, 0)
	return done
}

// persistArg encodes the Persist attribute bit for span args.
func persistArg(persist bool) int64 {
	if persist {
		return 1
	}
	return 0
}

// Stats returns MMIO reads, MMIO writes, DMA page transfers, and packets
// tagged with the Persist bit.
func (l *Link) Stats() (mmioReads, mmioWrites, dmaPages, persistTagged int64) {
	return l.mmioReads, l.mmioWrites, l.dmaPages, l.persistTagged
}

// FaultStats returns how many posted MMIO writes were dropped or torn by
// injected faults.
func (l *Link) FaultStats() (dropped, torn int64) {
	return l.mmioDropped, l.mmioTorn
}

// TrafficBytes estimates total bytes moved over the link given the cache
// line and page sizes — the paper's I/O-traffic comparisons (§1, §5.2).
func (l *Link) TrafficBytes(cacheLine, pageSize int) int64 {
	return (l.mmioReads+l.mmioWrites)*int64(cacheLine) + l.dmaPages*int64(pageSize)
}
