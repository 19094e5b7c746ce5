package core

import (
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/vm"
)

// pageRef names a page by its owning tenant and that tenant's virtual page
// number. With one device consolidating several address spaces, an LPN or a
// DRAM frame must map back to (tenant, vpn), not just a vpn.
type pageRef struct {
	t   *Tenant
	vpn uint64
}

// Tenant is one actor sharing a FlatFlash device in a consolidation run: it
// has a private unified address space (its own page table and TLB) and a
// private virtual clock, while the SSD, its cache, the PCIe link, host DRAM,
// and the promotion machinery are the shared device. Tenant 0 is the
// hierarchy's own actor — it aliases the device clock and address space, so a
// solo run through the Hierarchy interface and a 1-tenant run through
// OpenTenant execute the same code with the same state.
//
// Tenants are not goroutine-safe: a co-scheduling engine (internal/mtsim)
// interleaves their operations in global virtual-time order on one goroutine.
type Tenant struct {
	s     *FlatFlash
	id    int
	as    *vm.AddressSpace
	clock *sim.Clock
	track telemetry.Track

	dramHits   int64
	promotions int64

	// att is the tenant's latency-attribution account (nil until
	// SetAttribution attaches an engine). Its access windows collect the
	// charges every layer reports through the sink.
	att *telemetry.TenantAttrib
}

// Attrib returns the tenant's attribution account (nil when attribution is
// disabled).
func (t *Tenant) Attrib() *telemetry.TenantAttrib { return t.att }

// OpenTenant registers a new tenant on the device and returns its handle.
// The tenant's clock starts at the device frontier so its first operation
// cannot be scheduled in the device's past.
func (s *FlatFlash) OpenTenant() (*Tenant, error) {
	as, err := s.cfg.buildVM()
	if err != nil {
		return nil, err
	}
	t := &Tenant{
		s:     s,
		id:    len(s.tenants),
		as:    as,
		clock: sim.NewClock(),
		track: telemetry.TenantTrack(len(s.tenants)),
	}
	t.att = s.account(t)
	t.clock.AdvanceTo(s.clock.Now())
	s.tenants = append(s.tenants, t)
	if s.arb != nil {
		s.arb.AddTenant(t.id)
	}
	return t, nil
}

// SetArbiter attaches a DRAM-budget arbiter partitioning the promotion frame
// pool across tenants; every registered tenant (current and future) joins it.
// A nil arbiter restores unpartitioned promotion.
func (s *FlatFlash) SetArbiter(a *promote.Arbiter) {
	s.arb = a
	if a != nil {
		for _, t := range s.tenants {
			a.AddTenant(t.id)
		}
	}
}

// Arbiter returns the attached DRAM-budget arbiter, or nil.
func (s *FlatFlash) Arbiter() *promote.Arbiter { return s.arb }

// Tenants returns how many tenants share the device (at least 1: the
// hierarchy's own actor).
func (s *FlatFlash) Tenants() int { return len(s.tenants) }

// SelfTenant returns the hierarchy's own actor (tenant 0) as a Tenant
// handle. Driving it is identical to driving the Hierarchy interface — same
// clock, same address space — which is what lets a 1-tenant consolidation
// run reproduce a solo run exactly.
func (s *FlatFlash) SelfTenant() *Tenant { return s.self }

// ID returns the tenant's dense id (0 is the hierarchy's own actor).
func (t *Tenant) ID() int { return t.id }

// Mmap maps size bytes of SSD-backed memory into the tenant's address space.
func (t *Tenant) Mmap(size uint64) (Region, error) { return t.s.mmapFor(t, size, false) }

// MmapPersistent maps a persistent region (§3.5) into the tenant's address
// space.
func (t *Tenant) MmapPersistent(size uint64) (Region, error) { return t.s.mmapFor(t, size, true) }

// Read copies len(buf) bytes at addr (tenant-virtual) into buf.
func (t *Tenant) Read(addr uint64, buf []byte) (sim.Duration, error) {
	return t.s.accessFor(t, addr, buf, false)
}

// Write stores data at addr (tenant-virtual).
func (t *Tenant) Write(addr uint64, data []byte) (sim.Duration, error) {
	return t.s.accessFor(t, addr, data, true)
}

// Persist makes the byte range [addr, addr+size) durable (§3.5).
func (t *Tenant) Persist(addr uint64, size int) (sim.Duration, error) {
	return t.s.persistFor(t, addr, size)
}

// Now returns the tenant's virtual clock.
func (t *Tenant) Now() sim.Time { return t.clock.Now() }

// AdvanceTo moves the tenant's clock forward to tm (think time, or the
// co-scheduler aligning the tenant with the global order). Earlier times are
// ignored.
func (t *Tenant) AdvanceTo(tm sim.Time) { t.clock.AdvanceTo(tm) }

// DRAMHits returns how many of the tenant's accesses were absorbed by its
// promoted pages in host DRAM — the arbiter's benefit signal.
func (t *Tenant) DRAMHits() int64 { return t.dramHits }

// Promotions returns how many of the tenant's pages were promoted.
func (t *Tenant) Promotions() int64 { return t.promotions }

// TLBStats returns the tenant's private TLB hits, misses, and shootdowns.
func (t *Tenant) TLBStats() (hits, misses, shootdowns int64) { return t.as.Stats() }
