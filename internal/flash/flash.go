// Package flash implements a functional NAND flash device model: pages
// grouped into erase blocks spread across parallel channels, with the
// erase-before-program constraint, per-block wear counters, and virtual-time
// latencies for read, program, and erase operations.
//
// The device stores the real bytes of every live page (allocated lazily per
// page), so the layers above it — FTL, SSD-Cache, the FlatFlash hierarchy —
// can be tested for functional correctness, not just timing. A page's bytes
// are dropped when its owner releases it (the FTL does so when it invalidates
// a data page) or moves them to another page, or its block erases; every
// erased page reads from one shared 0xFF page.
package flash

import (
	"errors"
	"fmt"

	"flatflash/internal/fault"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// PageAddr identifies a physical flash page on the device.
type PageAddr uint32

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageAddr(^uint32(0))

// PageType distinguishes what a programmed page holds. The type is recorded
// in the page's out-of-band area at program time (alongside the logical
// address the FTL stores there), so it survives power loss and recovery can
// tell data pages from translation pages without decoding their contents.
type PageType uint8

// Page types.
const (
	// PageData holds host data (the default for every program).
	PageData PageType = iota
	// PageTrans holds a serialized slice of the FTL's L2P map — a
	// translation page in the demand-paged (DFTL-style) mapping mode.
	PageTrans
)

// Errors returned by the device.
var (
	ErrOutOfRange    = errors.New("flash: page address out of range")
	ErrNotErased     = errors.New("flash: program to a page that is not erased")
	ErrBadPageSize   = errors.New("flash: data length does not match page size")
	ErrBlockOutRange = errors.New("flash: block index out of range")
	ErrProgramFailed = errors.New("flash: page program failed")
	ErrEraseFailed   = errors.New("flash: block erase failed")
	ErrNoData        = errors.New("flash: page holds no bytes")
)

// Config describes the device geometry and timing.
type Config struct {
	PageSize       int          // bytes per page
	PagesPerBlock  int          // pages per erase block
	Blocks         int          // total erase blocks
	Channels       int          // independent channels (parallelism)
	ReadLatency    sim.Duration // page read (cell-to-register + transfer)
	ProgramLatency sim.Duration
	EraseLatency   sim.Duration
}

// DefaultConfig returns a small, fast NAND geometry with the 20 µs device
// latency the paper uses as its default flash latency (Fig 14d's rightmost
// point; Z-SSD-class).
func DefaultConfig() Config {
	return Config{
		PageSize:       4096,
		PagesPerBlock:  64,
		Blocks:         1024,
		Channels:       8,
		ReadLatency:    sim.Micros(20),
		ProgramLatency: sim.Micros(20),
		EraseLatency:   sim.Micros(100),
	}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	switch {
	case c.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d", c.PageSize)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d", c.PagesPerBlock)
	case c.Blocks <= 0:
		return fmt.Errorf("flash: Blocks %d", c.Blocks)
	case c.Channels <= 0:
		return fmt.Errorf("flash: Channels %d", c.Channels)
	case c.ReadLatency <= 0 || c.ProgramLatency <= 0 || c.EraseLatency <= 0:
		return errors.New("flash: non-positive latency")
	}
	return nil
}

// Capacity returns the device capacity in bytes.
func (c Config) Capacity() uint64 {
	return uint64(c.PageSize) * uint64(c.PagesPerBlock) * uint64(c.Blocks)
}

// TotalPages returns the number of physical pages.
func (c Config) TotalPages() int { return c.PagesPerBlock * c.Blocks }

// slabPages is how many page buffers one slab allocation covers.
const slabPages = 64

type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// Device is a NAND flash device.
//
// The device never writes into a buffer it holds: a program stores a fresh
// or handed-over buffer, and a held buffer is recycled only when Release or
// Erase drops its page. So a caller may keep a read-only view of a page
// (ReadShared, PeekShared) for as long as the page is live, and ProgramMove,
// which hands the buffer itself to the new page, keeps such a view valid.
type Device struct {
	cfg    Config
	data   [][]byte // nil until first program after an erase, and after Release
	state  []pageState
	ptype  []PageType // OOB page-type tag, set at program time
	erases []int64    // per-block erase count (wear)
	chans  []*sim.Resource

	// erased is the read-only view of every page that holds no bytes:
	// PageSize bytes of 0xFF, as erased NAND reads.
	erased []byte

	// free recycles page buffers from released and erased pages back into
	// programs, last in first out, so a program usually gets a cache-warm
	// buffer, and ProgramOwned hands one out for each buffer it keeps. Held
	// buffers plus the pool never exceed TotalPages: a page takes a buffer
	// from outside the pool only when the pool is empty. First-touch
	// programs that find the pool empty carve buffers from slab in
	// slabPages-page chunks, so filling a fresh device costs one allocation
	// per chunk, not per page.
	free [][]byte
	slab []byte

	faults *fault.Engine   // nil = no injection
	obs    *telemetry.Sink // nil when instrumentation is disabled

	reads, programs          int64
	readsTrans, progsTrans   int64 // translation-page slice of the totals
	programFails, eraseFails int64
}

// NewDevice builds a device from cfg; all blocks start erased.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:    cfg,
		data:   make([][]byte, cfg.TotalPages()),
		state:  make([]pageState, cfg.TotalPages()),
		ptype:  make([]PageType, cfg.TotalPages()),
		erases: make([]int64, cfg.Blocks),
		chans:  make([]*sim.Resource, cfg.Channels),
		erased: make([]byte, cfg.PageSize),
	}
	for i := range d.erased {
		d.erased[i] = 0xFF
	}
	for i := range d.chans {
		d.chans[i] = sim.NewResource()
	}
	return d, nil
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaults attaches a fault-injection engine (nil disables injection).
func (d *Device) SetFaults(e *fault.Engine) { d.faults = e }

// SetSink attaches the instrumentation sink: page reads and programs
// charge their issue-to-completion time (channel queueing included) to the
// flash component, or to map fetch for translation pages. A nil sink
// disables it.
func (d *Device) SetSink(s *telemetry.Sink) { d.obs = s }

// BlockOf returns the erase block containing page p.
func (d *Device) BlockOf(p PageAddr) int { return int(p) / d.cfg.PagesPerBlock }

func (d *Device) channelOf(p PageAddr) *sim.Resource {
	return d.chans[d.BlockOf(p)%d.cfg.Channels]
}

func (d *Device) checkPage(p PageAddr) error {
	if int(p) >= d.cfg.TotalPages() {
		return ErrOutOfRange
	}
	return nil
}

// Read copies page p into buf (which must be PageSize long) and returns the
// virtual time at which the data is available: ReadShared plus the copy. An
// erased page reads as all-0xFF bytes, as real NAND does.
func (d *Device) Read(now sim.Time, p PageAddr, buf []byte) (sim.Time, error) {
	if d.checkPage(p) == nil && len(buf) != d.cfg.PageSize {
		return now, ErrBadPageSize
	}
	data, done, err := d.ReadShared(now, p)
	if err == nil {
		copy(buf, data)
	}
	return done, err
}

// ReadShared is Read without the copy: it charges Sense and returns page p's
// own buffer, which the caller must not write. The view stays valid while p
// is live — until p is released or erased; a move takes the buffer along to
// the new page. A page holding no bytes reads as the device's one 0xFF page.
func (d *Device) ReadShared(now sim.Time, p PageAddr) ([]byte, sim.Time, error) {
	done, err := d.Sense(now, p, d.cfg.PageSize)
	if err != nil {
		return nil, done, err
	}
	return d.view(p), done, nil
}

// Sense performs a read of page p for a size-byte buffer without moving any
// bytes: the same checks, channel occupancy, read counters and attribution
// charge as Read (charged by the page's OOB type), for callers that discard
// or synthesize the contents themselves.
func (d *Device) Sense(now sim.Time, p PageAddr, size int) (sim.Time, error) {
	if err := d.checkPage(p); err != nil {
		return now, err
	}
	if size != d.cfg.PageSize {
		return now, ErrBadPageSize
	}
	_, done := d.channelOf(p).Acquire(now, d.cfg.ReadLatency)
	d.reads++
	kind := telemetry.ChargeNAND
	if d.ptype[p] == PageTrans {
		d.readsTrans++
		kind = telemetry.ChargeNANDMap
	}
	d.obs.Observe(kind, telemetry.TrackFlash, now, done, int64(p))
	return done, nil
}

// Peek copies page p into buf without advancing virtual time, touching
// channel state, or counting as a served read. It models the boot-time
// metadata scan recovery runs before the device accepts host traffic —
// reads there are off the simulated clock, like the OOB scan RebuildL2P
// already models.
func (d *Device) Peek(p PageAddr, buf []byte) error {
	if err := d.checkPage(p); err != nil {
		return err
	}
	if len(buf) != d.cfg.PageSize {
		return ErrBadPageSize
	}
	copy(buf, d.view(p))
	return nil
}

// PeekShared is Peek without the copy: page p's read-only view, as
// ReadShared returns it, or nil for an out-of-range page.
func (d *Device) PeekShared(p PageAddr) []byte {
	if d.checkPage(p) != nil {
		return nil
	}
	return d.view(p)
}

// view returns page p's buffer, or the 0xFF page if p holds no bytes.
func (d *Device) view(p PageAddr) []byte {
	if buf := d.data[p]; buf != nil {
		return buf
	}
	return d.erased
}

// Program writes data (PageSize bytes) into erased page p and returns the
// completion time. Programming a non-erased page fails, enforcing the NAND
// erase-before-program invariant the FTL exists to manage.
func (d *Device) Program(now sim.Time, p PageAddr, data []byte) (sim.Time, error) {
	return d.ProgramTyped(now, p, data, PageData)
}

// ProgramTyped is Program with an explicit OOB page-type tag. Translation
// pages charge their NAND service to the map-fetch attribution component so
// budget tables separate map-management traffic from data traffic.
func (d *Device) ProgramTyped(now sim.Time, p PageAddr, data []byte, t PageType) (sim.Time, error) {
	done, err := d.program(now, p, len(data), t)
	if err == nil {
		copy(d.store(p, nil), data)
	}
	return done, err
}

// ProgramOwned is ProgramTyped that keeps buf itself as page p's bytes
// instead of copying it. On success the caller gives buf up and gets a
// pooled buffer back in exchange, or nil if the pool is empty; a failed
// program leaves buf with the caller, for a retry elsewhere.
func (d *Device) ProgramOwned(now sim.Time, p PageAddr, buf []byte, t PageType) ([]byte, sim.Time, error) {
	done, err := d.program(now, p, len(buf), t)
	if err != nil {
		return nil, done, err
	}
	return d.store(p, buf), done, nil
}

// store makes buf programmed page p's bytes and returns a pooled buffer, or
// nil if the pool is empty. A nil buf stores the pooled buffer instead —
// carved from the slab if need be — and returns it for the caller to fill.
func (d *Device) store(p PageAddr, buf []byte) []byte {
	var pooled []byte
	if n := len(d.free); n > 0 {
		pooled, d.free = d.free[n-1], d.free[:n-1]
	}
	if buf == nil {
		if pooled == nil {
			if len(d.slab) < d.cfg.PageSize {
				d.slab = make([]byte, min(slabPages, d.cfg.TotalPages())*d.cfg.PageSize)
			}
			pooled = d.slab[:d.cfg.PageSize:d.cfg.PageSize]
			d.slab = d.slab[d.cfg.PageSize:]
		}
		buf = pooled
	}
	d.data[p] = buf
	return pooled
}

// ProgramMove is ProgramTyped with page src's bytes, handed to dst instead
// of copied: on success src holds none, as if released; a failed program
// leaves them for a retry elsewhere. A src holding no bytes is ErrNoData.
func (d *Device) ProgramMove(now sim.Time, dst, src PageAddr, t PageType) (sim.Time, error) {
	if !d.Holds(src) {
		return now, ErrNoData
	}
	done, err := d.program(now, dst, d.cfg.PageSize, t)
	if err == nil {
		d.data[dst], d.data[src] = d.data[src], nil
	}
	return done, err
}

// program is a program of size bytes into page p, short of storing them:
// the checks, channel charge, OOB tag, fault draw, state and counters.
func (d *Device) program(now sim.Time, p PageAddr, size int, t PageType) (sim.Time, error) {
	if err := d.checkPage(p); err != nil {
		return now, err
	}
	if size != d.cfg.PageSize {
		return now, ErrBadPageSize
	}
	if d.state[p] != pageErased {
		return now, ErrNotErased
	}
	_, done := d.channelOf(p).Acquire(now, d.cfg.ProgramLatency)
	kind := telemetry.ChargeNAND
	if t == PageTrans {
		kind = telemetry.ChargeNANDMap
	}
	d.obs.Observe(kind, telemetry.TrackFlash, now, done, int64(p))
	// The OOB tag is written with the program attempt, success or not: a
	// failed program still leaves whatever reached the cells.
	d.ptype[p] = t
	d.state[p] = pageProgrammed
	if d.faults.FailProgram(now) {
		// A failed program leaves the page in an untrustworthy, non-erased
		// state (data nil reads back as 0xFF). The FTL must retire the block.
		d.programFails++
		return done, ErrProgramFailed
	}
	d.programs++
	if t == PageTrans {
		d.progsTrans++
	}
	return done, nil
}

// Erase erases block b, returning all its pages to the erased state, and
// returns the completion time. Each erase increments the block's wear count.
func (d *Device) Erase(now sim.Time, b int) (sim.Time, error) {
	if b < 0 || b >= d.cfg.Blocks {
		return now, ErrBlockOutRange
	}
	first := PageAddr(b * d.cfg.PagesPerBlock)
	_, done := d.channelOf(first).Acquire(now, d.cfg.EraseLatency)
	if d.faults.FailErase(now) {
		// A failed erase leaves the block contents untouched; the FTL must
		// retire the block without reclaiming it.
		d.eraseFails++
		return done, ErrEraseFailed
	}
	for i := 0; i < d.cfg.PagesPerBlock; i++ {
		p := first + PageAddr(i)
		d.state[p] = pageErased
		if buf := d.data[p]; buf != nil {
			d.free = append(d.free, buf)
		}
		d.data[p] = nil
		d.ptype[p] = PageData
	}
	d.erases[b]++
	return done, nil
}

// Release drops page p's bytes, returning its buffer to the pool the next
// program draws from. It models nothing on the device: p stays programmed
// with its OOB type, Program to it still fails until its block erases, and
// no counter or clock moves. Reading a released page yields the erased
// pattern, so only an owner that will never read p again — the FTL, once p
// holds a superseded copy — may release it. Releasing an erased or already
// released page is a no-op.
func (d *Device) Release(p PageAddr) {
	if d.checkPage(p) != nil {
		return
	}
	if buf := d.data[p]; buf != nil {
		d.free = append(d.free, buf)
		d.data[p] = nil
	}
}

// TypeOf returns page p's OOB page-type tag (PageData for out-of-range or
// never-programmed pages).
func (d *Device) TypeOf(p PageAddr) PageType {
	if d.checkPage(p) != nil {
		return PageData
	}
	return d.ptype[p]
}

// Holds reports whether the device stores page p's bytes: p was programmed
// successfully and has not been released or erased since.
func (d *Device) Holds(p PageAddr) bool {
	return d.checkPage(p) == nil && d.data[p] != nil
}

// IsErased reports whether page p is in the erased state.
func (d *Device) IsErased(p PageAddr) bool {
	return d.checkPage(p) == nil && d.state[p] == pageErased
}

// Wear returns total erase count, max per-block erase count, and total
// program count — the inputs to the paper's SSD-lifetime comparisons.
func (d *Device) Wear() (totalErases, maxBlockErases, programs int64) {
	for _, e := range d.erases {
		totalErases += e
		if e > maxBlockErases {
			maxBlockErases = e
		}
	}
	return totalErases, maxBlockErases, d.programs
}

// Reads returns the total page reads served.
func (d *Device) Reads() int64 { return d.reads }

// WearByType splits the program and read totals by page type: data pages
// versus translation pages (the demand-paged map's flash traffic). The
// translation counts are zero when the map is all-in-memory, so existing
// reports are unchanged.
func (d *Device) WearByType() (dataReads, transReads, dataProgs, transProgs int64) {
	return d.reads - d.readsTrans, d.readsTrans, d.programs - d.progsTrans, d.progsTrans
}

// FaultCounts returns how many injected program and erase failures the
// device has surfaced.
func (d *Device) FaultCounts() (programFails, eraseFails int64) {
	return d.programFails, d.eraseFails
}

// BlockErases returns the erase count of block b (0 for out-of-range).
func (d *Device) BlockErases(b int) int64 {
	if b < 0 || b >= d.cfg.Blocks {
		return 0
	}
	return d.erases[b]
}
