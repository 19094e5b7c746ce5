// Package dram models host DRAM: a pool of page frames with cache-line
// access latency, an LRU eviction order over unpinned frames, and pinning
// for frames that are the destination of an in-flight promotion (the PLB's
// reserved memory region, §3.3).
package dram

import (
	"errors"
	"fmt"

	"flatflash/internal/sim"
)

// Errors.
var (
	ErrNoFrames = errors.New("dram: no free frames")
	ErrBadFrame = errors.New("dram: invalid frame")
)

// Config sizes the DRAM.
type Config struct {
	Frames        int // number of page frames
	PageSize      int
	AccessLatency sim.Duration // one cache-line access
}

// DefaultAccessLatency is a conventional DRAM cache-line access time.
const DefaultAccessLatency = 100 * sim.Nanosecond

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Frames <= 0 || c.PageSize <= 0 {
		return fmt.Errorf("dram: Frames %d PageSize %d", c.Frames, c.PageSize)
	}
	if c.AccessLatency <= 0 {
		return errors.New("dram: non-positive access latency")
	}
	return nil
}

// DRAM is the host memory. Frames are small dense integers, so the LRU list
// is intrusive: prev/next arrays indexed by frame replace container/list and
// its per-node allocations, and page buffers are retained across
// Release/Alloc cycles (re-zeroed on Alloc) so steady-state promotion and
// eviction churn allocates nothing.
type DRAM struct {
	cfg    Config
	frames [][]byte // lazily created, retained after Release for reuse
	free   []int

	// Intrusive LRU over allocated, unpinned frames. head is MRU, tail LRU;
	// -1 terminates. inList[f] says whether f is linked.
	prev, next []int32
	head, tail int32
	inList     []bool
	pinned     []bool
	allocd     []bool
	accesses   int64
}

// New builds DRAM with all frames free.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{
		cfg:    cfg,
		frames: make([][]byte, cfg.Frames),
		prev:   make([]int32, cfg.Frames),
		next:   make([]int32, cfg.Frames),
		head:   -1,
		tail:   -1,
		inList: make([]bool, cfg.Frames),
		pinned: make([]bool, cfg.Frames),
		allocd: make([]bool, cfg.Frames),
	}
	for i := cfg.Frames - 1; i >= 0; i-- {
		d.free = append(d.free, i)
	}
	return d, nil
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// FreeFrames returns the number of unallocated frames.
func (d *DRAM) FreeFrames() int { return len(d.free) }

//flatflash:hotpath
func (d *DRAM) detach(f int32) {
	p, n := d.prev[f], d.next[f]
	if p >= 0 {
		d.next[p] = n
	} else {
		d.head = n
	}
	if n >= 0 {
		d.prev[n] = p
	} else {
		d.tail = p
	}
	d.inList[f] = false
}

//flatflash:hotpath
func (d *DRAM) pushFront(f int32) {
	d.prev[f] = -1
	d.next[f] = d.head
	if d.head >= 0 {
		d.prev[d.head] = f
	} else {
		d.tail = f
	}
	d.head = f
	d.inList[f] = true
}

// Alloc takes a free frame (zeroed) and places it at the MRU position.
func (d *DRAM) Alloc() (int, error) {
	if len(d.free) == 0 {
		return -1, ErrNoFrames
	}
	f := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	if d.frames[f] == nil {
		d.frames[f] = make([]byte, d.cfg.PageSize)
	} else {
		clear(d.frames[f])
	}
	d.allocd[f] = true
	d.pushFront(int32(f))
	return f, nil
}

// Release returns frame f to the free pool.
func (d *DRAM) Release(f int) error {
	if err := d.check(f); err != nil {
		return err
	}
	if d.inList[f] {
		d.detach(int32(f))
	}
	d.pinned[f] = false
	d.allocd[f] = false
	d.free = append(d.free, f)
	return nil
}

//flatflash:hotpath
func (d *DRAM) check(f int) error {
	if f < 0 || f >= d.cfg.Frames || !d.allocd[f] {
		return ErrBadFrame
	}
	return nil
}

// Data returns the page buffer of an allocated frame.
//
//flatflash:hotpath
func (d *DRAM) Data(f int) ([]byte, error) {
	if err := d.check(f); err != nil {
		return nil, err
	}
	return d.frames[f], nil
}

// Touch records a use of frame f (moves it to MRU) and returns the
// cache-line access latency to charge.
//
//flatflash:hotpath
func (d *DRAM) Touch(f int) (sim.Duration, error) {
	if err := d.check(f); err != nil {
		return 0, err
	}
	if d.inList[f] && int32(f) != d.head {
		d.detach(int32(f))
		d.pushFront(int32(f))
	}
	d.accesses++
	return d.cfg.AccessLatency, nil
}

// Pin removes frame f from eviction consideration (promotion destination).
func (d *DRAM) Pin(f int) error {
	if err := d.check(f); err != nil {
		return err
	}
	if d.inList[f] {
		d.detach(int32(f))
	}
	d.pinned[f] = true
	return nil
}

// Unpin makes frame f evictable again, at MRU position.
func (d *DRAM) Unpin(f int) error {
	if err := d.check(f); err != nil {
		return err
	}
	if !d.pinned[f] {
		return nil
	}
	d.pinned[f] = false
	d.pushFront(int32(f))
	return nil
}

// EvictCandidate returns the least-recently-used unpinned frame, without
// releasing it; the caller writes it back and then calls Release.
func (d *DRAM) EvictCandidate() (int, bool) {
	if d.tail < 0 {
		return -1, false
	}
	return int(d.tail), true
}

// EvictCandidateWhere returns the least-recently-used unpinned frame that
// satisfies keep, walking the LRU order from coldest to hottest. The
// multi-tenant DRAM arbiter uses it to reclaim a frame from one specific
// tenant (the one over its budget) without disturbing the others.
func (d *DRAM) EvictCandidateWhere(keep func(frame int) bool) (int, bool) {
	for f := d.tail; f >= 0; f = d.prev[f] {
		if keep(int(f)) {
			return int(f), true
		}
	}
	return -1, false
}

// Accesses returns the number of cache-line accesses recorded by Touch.
func (d *DRAM) Accesses() int64 { return d.accesses }
