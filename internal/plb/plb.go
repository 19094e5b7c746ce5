// Package plb implements FlatFlash's Promotion Look-aside Buffer (§3.3,
// Figure 4): a small table in the host bridge that tracks in-flight page
// promotions from the SSD-Cache to host DRAM so the CPU never stalls on a
// promotion.
//
// Each in-flight promotion has an entry holding the source SSD address (SSD
// tag), the destination DRAM frame (Mem tag), and a Copied-CL bit vector
// recording which cache lines already reside in host DRAM. Promotion copies
// cache lines in the background; a CPU store to the page during the flight
// sets the line's Copied-CL bit and is redirected to DRAM, and the later
// inbound copy of that line from the SSD is dropped (CPU data wins). Reads
// of copied lines are served from DRAM; reads of not-yet-copied lines are
// served from the SSD side.
//
// The simulator models background copying as linear progress over the
// promotion latency (12.1 µs for a 4 KB page, Table 2): cache line i lands
// at start + (i+1)·(latency/linesPerPage), materialized lazily on access
// and at completion.
package plb

import (
	"errors"
	"fmt"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Errors.
var (
	ErrFull      = errors.New("plb: all entries in use")
	ErrInFlight  = errors.New("plb: page already being promoted")
	ErrBadBuffer = errors.New("plb: buffer sizes do not match page size")
)

// Config sizes the PLB.
type Config struct {
	Entries          int          // paper: 64
	PageSize         int          // 4096
	CacheLineSize    int          // 64
	PromotionLatency sim.Duration // 12.1 µs per page
}

// DefaultConfig returns the paper's PLB parameters.
func DefaultConfig() Config {
	return Config{
		Entries:          64,
		PageSize:         4096,
		CacheLineSize:    64,
		PromotionLatency: sim.Micros(12.1),
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Entries <= 0:
		return fmt.Errorf("plb: Entries %d", c.Entries)
	case c.PageSize <= 0 || c.CacheLineSize <= 0 || c.PageSize%c.CacheLineSize != 0:
		return fmt.Errorf("plb: PageSize %d / CacheLineSize %d", c.PageSize, c.CacheLineSize)
	case c.PageSize/c.CacheLineSize > 64:
		return fmt.Errorf("plb: more than 64 cache lines per page (%d)", c.PageSize/c.CacheLineSize)
	case c.PromotionLatency <= 0:
		return errors.New("plb: non-positive promotion latency")
	}
	return nil
}

type entry struct {
	valid    bool
	lpn      uint32 // SSD tag
	frame    int    // Mem tag
	copied   uint64 // Copied-CL bit vector: line is in host DRAM
	byCPU    uint64 // lines whose DRAM copy came from a CPU store
	start    sim.Time
	deadline sim.Time
	perLine  sim.Duration
	src      []byte // snapshot of the page on the SSD side
	dst      []byte // destination DRAM frame buffer
	dirty    bool   // snapshot was dirty, or a store hit the page in flight
}

// Completion reports a finished promotion so the caller can update the PTE
// and TLB (which costs the Table 2 update latency, charged off the critical
// path).
type Completion struct {
	LPN      uint32
	Frame    int
	Deadline sim.Time
	// Dirty reports that the promoted page carries data newer than flash:
	// its SSD-Cache source was dirty, or a CPU store landed during flight.
	Dirty bool
}

// PLB is the promotion look-aside buffer.
type PLB struct {
	cfg     Config
	entries []entry
	nLines  int
	obs     *telemetry.Sink // nil when instrumentation is disabled

	// pending counts valid entries and nextDeadline is the earliest deadline
	// among them, so Expired — polled on every access — is a two-compare
	// no-op while nothing can have completed, instead of an entry scan.
	pending      int
	nextDeadline sim.Time

	// scratch backs the slices Expired and Flush return. Both callers
	// consume the completions before touching the PLB again, so one
	// buffer (capacity bounded by the entry count) serves every poll
	// without a per-batch allocation.
	scratch []Completion

	started, completed, droppedInbound, redirectedStores int64
	lookups, routed                                      int64
	aborted                                              int64
}

// New builds an empty PLB.
func New(cfg Config) (*PLB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PLB{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		nLines:  cfg.PageSize / cfg.CacheLineSize,
	}, nil
}

// Config returns the PLB configuration.
func (p *PLB) Config() Config { return p.cfg }

// SetSink attaches the instrumentation sink: one interval per promotion
// flight on the promotion track, plus completion events. A flight charges
// its duration to the promotion component; it is off the critical path, so
// the hierarchy suspends attribution around promotion kickoff and the
// charge lands on the background account. A nil sink disables it.
func (p *PLB) SetSink(s *telemetry.Sink) { p.obs = s }

// Free reports how many entries are available.
func (p *PLB) Free() int {
	n := 0
	for i := range p.entries {
		if !p.entries[i].valid {
			n++
		}
	}
	return n
}

// InFlight reports whether lpn is currently being promoted.
func (p *PLB) InFlight(lpn uint32) bool {
	return p.find(lpn) != nil
}

//flatflash:hotpath
func (p *PLB) find(lpn uint32) *entry {
	if p.pending == 0 {
		return nil
	}
	for i := range p.entries {
		if p.entries[i].valid && p.entries[i].lpn == lpn {
			return &p.entries[i]
		}
	}
	return nil
}

// Start begins promoting page lpn into DRAM frame frame. src is the page's
// current SSD-side contents (snapshotted); dst is the DRAM frame buffer the
// lines are copied into. srcDirty records that the SSD-side copy was newer
// than flash. The promotion completes PromotionLatency later; Expired must
// be polled to finalize it.
func (p *PLB) Start(now sim.Time, lpn uint32, frame int, src, dst []byte, srcDirty bool) error {
	if len(src) != p.cfg.PageSize || len(dst) != p.cfg.PageSize {
		return ErrBadBuffer
	}
	if p.find(lpn) != nil {
		return ErrInFlight
	}
	var slot *entry
	for i := range p.entries {
		if !p.entries[i].valid {
			slot = &p.entries[i]
			break
		}
	}
	if slot == nil {
		return ErrFull
	}
	// Reuse the slot's snapshot buffer from its previous flight; every byte
	// is overwritten by the copy below.
	snap := slot.src
	if snap == nil {
		snap = make([]byte, p.cfg.PageSize)
	}
	copy(snap, src)
	*slot = entry{
		valid:    true,
		lpn:      lpn,
		frame:    frame,
		start:    now,
		deadline: now.Add(p.cfg.PromotionLatency),
		perLine:  p.cfg.PromotionLatency / sim.Duration(p.nLines),
		src:      snap,
		dst:      dst,
		dirty:    srcDirty,
	}
	if p.pending == 0 || slot.deadline.Before(p.nextDeadline) {
		p.nextDeadline = slot.deadline
	}
	p.pending++
	p.started++
	p.obs.Observe(telemetry.SpanPromotion, telemetry.TrackPromo, now, slot.deadline, int64(lpn))
	return nil
}

// progress materializes the background copy up to time now: every line whose
// scheduled arrival has passed and that the CPU has not already written is
// copied from the SSD snapshot into the DRAM frame. Inbound lines that find
// their Copied-CL bit already set are dropped (Figure 4c).
//
//flatflash:hotpath
func (p *PLB) progress(e *entry, now sim.Time) {
	elapsed := now.Sub(e.start)
	done := int(elapsed / e.perLine)
	if done > p.nLines {
		done = p.nLines
	}
	for i := 0; i < done; i++ {
		bit := uint64(1) << uint(i)
		if e.copied&bit != 0 {
			if e.byCPU&bit != 0 {
				// The inbound CL from the SSD is discarded: the CPU's
				// store already placed the newest data in DRAM.
				p.droppedInbound++
				e.byCPU &^= bit // count the drop once
			}
			continue
		}
		off := i * p.cfg.CacheLineSize
		copy(e.dst[off:off+p.cfg.CacheLineSize], e.src[off:off+p.cfg.CacheLineSize])
		e.copied |= bit
	}
}

// Route describes where an access to an in-flight page was served.
type Route int

// Routes returned by Access.
const (
	RouteNone Route = iota // page not in flight; caller uses the normal path
	RouteDRAM              // served by the destination DRAM frame
	RouteSSD               // served from the SSD side (line not yet copied)
)

// Access services a CPU memory request to (lpn, offset within page) during a
// possible in-flight promotion. For a store, data is written; for a load,
// data is read into buf. The returned route tells the caller which latency
// to charge (DRAM vs SSD/MMIO). Accesses that span cache lines are split by
// the caller; here off+len must stay within one line.
//
//flatflash:hotpath
func (p *PLB) Access(now sim.Time, lpn uint32, off int, buf []byte, isStore bool) Route {
	p.lookups++
	e := p.find(lpn)
	if e == nil {
		return RouteNone
	}
	p.routed++
	if off < 0 || off+len(buf) > p.cfg.PageSize {
		panic("plb: access outside page")
	}
	line := off / p.cfg.CacheLineSize
	if (off+len(buf)-1)/p.cfg.CacheLineSize != line {
		panic("plb: access spans cache lines")
	}
	p.progress(e, now)
	bit := uint64(1) << uint(line)
	if isStore {
		// Figure 4b: the store sets the Copied-CL bit and is redirected to
		// host DRAM via the Mem tag. CPU requests win over inbound copies.
		// A store narrower than the line pulls the rest of the line with it
		// (the CPU evicts whole cache lines).
		if e.copied&bit == 0 {
			lo := line * p.cfg.CacheLineSize
			copy(e.dst[lo:lo+p.cfg.CacheLineSize], e.src[lo:lo+p.cfg.CacheLineSize])
		}
		copy(e.dst[off:off+len(buf)], buf)
		e.copied |= bit
		e.byCPU |= bit
		e.dirty = true
		p.redirectedStores++
		return RouteDRAM
	}
	if e.copied&bit != 0 {
		copy(buf, e.dst[off:off+len(buf)])
		return RouteDRAM
	}
	copy(buf, e.src[off:off+len(buf)])
	return RouteSSD
}

// Pending reports how many promotions are currently in flight. The
// hierarchy skips completion polling on every cache line while it is zero:
// with nothing in flight, Expired has nothing to return.
//
//flatflash:hotpath
func (p *PLB) Pending() int { return p.pending }

// clearEntry invalidates e but keeps its snapshot buffer for the slot's next
// flight.
func (p *PLB) clearEntry(e *entry) {
	src := e.src
	*e = entry{}
	e.src = src
	p.pending--
}

// retarget recomputes the earliest deadline among remaining flights after
// completions freed entries.
func (p *PLB) retarget() {
	if p.pending == 0 {
		return
	}
	first := true
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		if first || e.deadline.Before(p.nextDeadline) {
			p.nextDeadline = e.deadline
			first = false
		}
	}
}

// Expired finalizes every promotion whose deadline has passed: remaining
// lines are copied into the frame, the entry is freed for reuse, and a
// Completion is returned so the caller can update the PTE and TLB. While no
// deadline has been reached it returns nil without scanning the entries.
// The returned slice is valid until the next Expired or Flush call.
func (p *PLB) Expired(now sim.Time) []Completion {
	if p.pending == 0 || p.nextDeadline.After(now) {
		return nil
	}
	out := p.scratch[:0]
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid || e.deadline.After(now) {
			continue
		}
		p.progress(e, e.deadline.Add(p.cfg.PromotionLatency)) // force all lines
		out = append(out, Completion{LPN: e.lpn, Frame: e.frame, Deadline: e.deadline, Dirty: e.dirty})
		p.obs.Observe(telemetry.EvPromoteComplete, telemetry.TrackPromo, e.deadline, e.deadline, int64(e.lpn))
		p.clearEntry(e)
		p.completed++
	}
	p.retarget()
	p.scratch = out
	return out
}

// Flush forces all in-flight promotions to complete immediately (used when
// the hierarchy must quiesce, e.g. before a crash snapshot in tests). The
// returned slice is valid until the next Expired or Flush call.
func (p *PLB) Flush(now sim.Time) []Completion {
	out := p.scratch[:0]
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		p.progress(e, e.deadline.Add(p.cfg.PromotionLatency))
		at := e.deadline.Max(now)
		out = append(out, Completion{LPN: e.lpn, Frame: e.frame, Deadline: at, Dirty: e.dirty})
		p.obs.Observe(telemetry.EvPromoteComplete, telemetry.TrackPromo, at, at, int64(e.lpn))
		p.clearEntry(e)
		p.completed++
	}
	p.scratch = out
	return out
}

// Aborted describes one in-flight promotion discarded by a power loss.
type Aborted struct {
	LPN   uint32
	Frame int
}

// AbortAll discards every in-flight promotion without completing it: the PLB
// lives in the host bridge, outside the SSD's persistence domain, so a power
// loss simply loses the flights. The page's durable home remains the SSD
// side (the SSD-Cache snapshot or flash), and partially-copied DRAM frames
// are abandoned. The freed frames are returned so the caller can reclaim
// them.
func (p *PLB) AbortAll() []Aborted {
	var out []Aborted
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid {
			continue
		}
		out = append(out, Aborted{LPN: e.lpn, Frame: e.frame})
		p.clearEntry(e)
		p.aborted++
	}
	return out
}

// AbortedCount returns how many in-flight promotions power losses discarded.
func (p *PLB) AbortedCount() int64 { return p.aborted }

// Stats returns promotions started/completed, inbound lines dropped in
// favor of CPU stores, and stores redirected to DRAM during flight.
func (p *PLB) Stats() (started, completed, droppedInbound, redirectedStores int64) {
	return p.started, p.completed, p.droppedInbound, p.redirectedStores
}

// HitRatio returns the fraction of PLB lookups that found an in-flight
// promotion and were served through it (Figure 4's redirect paths), or 0
// before any lookup.
func (p *PLB) HitRatio() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.routed) / float64(p.lookups)
}
