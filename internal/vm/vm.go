// Package vm implements the virtual-memory side of FlatFlash (§3.2): a
// unified page table whose entries can point either at host DRAM frames or
// directly at SSD pages (the FlashMap-style merge of memory, storage, and
// FTL translation into one layer), a TLB with the paper's shootdown/update
// cost, and the reserved Persist PTE bit that marks pages of persistent
// memory regions as never-promotable (§3.5).
package vm

import (
	"errors"
	"fmt"

	"flatflash/internal/sim"
)

// Errors.
var (
	ErrUnmapped   = errors.New("vm: access to unmapped page")
	ErrOutOfSpace = errors.New("vm: virtual address space exhausted")
)

// Location says where a virtual page's backing currently lives.
type Location uint8

// Page locations.
const (
	InSSD Location = iota
	InDRAM
)

// PTE is a page-table entry of the unified translation layer. Exactly one
// of Frame/SSDPage is meaningful depending on Loc. The paper's layout
// (Figure 3b) keeps every mapped page Present — the point of FlatFlash is
// that SSD-resident pages are accessed directly rather than faulted in.
type PTE struct {
	Present bool
	Loc     Location
	Frame   int    // DRAM frame when Loc == InDRAM
	SSDPage uint32 // SSD page (merged FTL mapping) when Loc == InSSD
	Persist bool   // §3.5: page belongs to a pmem region; never promote
	Dirty   bool
}

// Config holds translation timing (Table 2).
type Config struct {
	PageSize      int
	WalkLatency   sim.Duration // page-table walk: 0.7 µs
	UpdateLatency sim.Duration // PTE + TLB entry update/shootdown: 1.4 µs
	TLBEntries    int
}

// DefaultConfig returns the paper's translation costs and a 512-entry TLB.
func DefaultConfig() Config {
	return Config{
		PageSize:      4096,
		WalkLatency:   sim.Micros(0.7),
		UpdateLatency: sim.Micros(1.4),
		TLBEntries:    512,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.PageSize <= 0 || c.TLBEntries <= 0 {
		return fmt.Errorf("vm: PageSize %d TLBEntries %d", c.PageSize, c.TLBEntries)
	}
	if c.WalkLatency <= 0 || c.UpdateLatency <= 0 {
		return errors.New("vm: non-positive latency")
	}
	return nil
}

// AddressSpace is one process's unified page table plus TLB.
type AddressSpace struct {
	cfg   Config
	pages []PTE  // indexed by VPN; covers the VPNs handed out so far
	next  uint64 // next VPN Reserve hands out
	limit uint64 // VPNs the space can map

	tlb        *tlb
	walks      int64
	tlbHits    int64
	tlbMisses  int64
	shootdowns int64
}

// New builds an empty address space able to map up to maxPages pages. The
// page table and the TLB's index start empty and grow as pages are mapped,
// so building one costs nothing per mappable page.
func New(cfg Config, maxPages int) (*AddressSpace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if maxPages <= 0 {
		return nil, fmt.Errorf("vm: maxPages %d", maxPages)
	}
	return &AddressSpace{
		cfg:   cfg,
		limit: uint64(maxPages),
		tlb:   newTLB(cfg.TLBEntries, 0),
	}, nil
}

// Config returns the configuration.
func (a *AddressSpace) Config() Config { return a.cfg }

// PageSize returns the page size.
func (a *AddressSpace) PageSize() int { return a.cfg.PageSize }

// Reserve allocates a contiguous run of n virtual pages and returns the
// first VPN.
func (a *AddressSpace) Reserve(n int) (uint64, error) {
	if n <= 0 || a.next+uint64(n) > a.limit {
		return 0, ErrOutOfSpace
	}
	vpn := a.next
	a.next += uint64(n)
	a.cover(a.next)
	return vpn, nil
}

// Map installs a PTE for vpn, which must be below the space's maxPages.
func (a *AddressSpace) Map(vpn uint64, pte PTE) {
	if vpn >= a.limit {
		panic(fmt.Sprintf("vm: Map of vpn %d beyond maxPages %d", vpn, a.limit))
	}
	a.cover(vpn + 1)
	pte.Present = true
	a.pages[vpn] = pte
}

// cover grows the page table and the TLB's index to hold VPNs below n.
// Growing may move the table, so a *PTE is good only until the next
// Reserve or Map.
func (a *AddressSpace) cover(n uint64) {
	if grow := int(n) - len(a.pages); grow > 0 {
		a.pages = append(a.pages, make([]PTE, grow)...)
		a.tlb.cover(int(n))
	}
}

// PTEOf returns a pointer to vpn's entry for in-place updates by the
// hierarchy (promotion completion, eviction), valid until the next Reserve
// or Map.
func (a *AddressSpace) PTEOf(vpn uint64) *PTE { return &a.pages[vpn] }

// Translate resolves vpn, charging TLB-hit or page-walk latency, and
// returns the PTE (valid until the next Reserve or Map) plus the
// translation delay. A missing mapping returns ErrUnmapped.
//
//flatflash:hotpath
func (a *AddressSpace) Translate(vpn uint64) (*PTE, sim.Duration, error) {
	if vpn >= uint64(len(a.pages)) || !a.pages[vpn].Present {
		return nil, 0, ErrUnmapped
	}
	if a.tlb.lookup(vpn) {
		a.tlbHits++
		return &a.pages[vpn], 0, nil
	}
	a.tlbMisses++
	a.walks++
	a.tlb.insert(vpn)
	return &a.pages[vpn], a.cfg.WalkLatency, nil
}

// UpdateMapping changes where vpn points (promotion completion or DRAM
// eviction) and invalidates its TLB entry. It returns the PTE/TLB update
// cost (Table 2's 1.4 µs), which the caller charges on or off the critical
// path as the paper prescribes.
func (a *AddressSpace) UpdateMapping(vpn uint64, pte PTE) sim.Duration {
	pte.Present = true
	a.pages[vpn] = pte
	a.tlb.invalidate(vpn)
	a.shootdowns++
	return a.cfg.UpdateLatency
}

// Stats returns TLB hits, misses (= page walks), and shootdowns.
func (a *AddressSpace) Stats() (tlbHits, tlbMisses, shootdowns int64) {
	return a.tlbHits, a.tlbMisses, a.shootdowns
}

// MappedPages returns how many VPNs have been handed out by Reserve.
func (a *AddressSpace) MappedPages() uint64 { return a.next }

// tlb is a fully associative exact-LRU TLB, laid out as an intrusive
// doubly-linked list over preallocated slot arrays so that lookups, inserts,
// and evictions are allocation-free. The vpn -> slot index is a dense array
// over the mapped VPNs (4 bytes per page), grown with the page table, so a
// lookup is one load rather than a hash. Exact LRU — not CLOCK — keeps
// hit/miss sequences, and therefore every latency and counter downstream,
// byte-identical to the original container/list implementation.
type tlb struct {
	slot []int32  // vpn -> slot index + 1; 0 when vpn is not resident
	vpns []uint64 // slot -> vpn
	prev []int32  // toward MRU; -1 at head
	next []int32  // toward LRU; -1 at tail
	head int32    // MRU slot, -1 when empty
	tail int32    // LRU slot, -1 when empty
	free []int32  // unused slot stack
}

// newTLB builds a TLB of capacity entries for VPNs below pages; cover
// extends that range.
func newTLB(capacity, pages int) *tlb {
	t := &tlb{
		slot: make([]int32, pages),
		vpns: make([]uint64, capacity),
		prev: make([]int32, capacity),
		next: make([]int32, capacity),
		head: -1,
		tail: -1,
		free: make([]int32, capacity),
	}
	for i := range t.free {
		t.free[i] = int32(capacity - 1 - i) // pop order 0,1,2,... as list fills
	}
	return t
}

// cover grows the vpn -> slot index to hold VPNs below n.
func (t *tlb) cover(n int) {
	if grow := n - len(t.slot); grow > 0 {
		t.slot = append(t.slot, make([]int32, grow)...)
	}
}

//flatflash:hotpath
func (t *tlb) detach(i int32) {
	p, n := t.prev[i], t.next[i]
	if p >= 0 {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.tail = p
	}
}

//flatflash:hotpath
func (t *tlb) pushFront(i int32) {
	t.prev[i] = -1
	t.next[i] = t.head
	if t.head >= 0 {
		t.prev[t.head] = i
	} else {
		t.tail = i
	}
	t.head = i
}

//flatflash:hotpath
func (t *tlb) lookup(vpn uint64) bool {
	i := t.slot[vpn] - 1
	if i < 0 {
		return false
	}
	if i != t.head {
		t.detach(i)
		t.pushFront(i)
	}
	return true
}

//flatflash:hotpath
func (t *tlb) insert(vpn uint64) {
	if i := t.slot[vpn] - 1; i >= 0 {
		if i != t.head {
			t.detach(i)
			t.pushFront(i)
		}
		return
	}
	var i int32
	if n := len(t.free); n > 0 {
		i = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		i = t.tail // evict LRU
		t.detach(i)
		t.slot[t.vpns[i]] = 0
	}
	t.vpns[i] = vpn
	t.slot[vpn] = i + 1
	t.pushFront(i)
}

func (t *tlb) invalidate(vpn uint64) {
	if i := t.slot[vpn] - 1; i >= 0 {
		t.detach(i)
		t.slot[vpn] = 0
		t.free = append(t.free, i)
	}
}
