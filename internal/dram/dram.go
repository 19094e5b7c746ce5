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
// is intrusive: prev/next links in each frame's record replace container/list
// and its per-node allocations, and page buffers are retained across
// Release/Alloc cycles so steady-state promotion and eviction churn
// allocates nothing. A frame's record and buffer are created on its first
// Alloc, so a DRAM costs what a run touches, not what it could hold.
type DRAM struct {
	cfg    Config
	frames []frame // every frame allocated at least once, by index
	free   []int   // released frames, reused last in first out

	// Intrusive LRU over allocated, unpinned frames. head is MRU, tail LRU;
	// -1 terminates.
	head, tail int32
	accesses   int64
}

// frame is one page frame's buffer and bookkeeping.
type frame struct {
	data       []byte
	prev, next int32 // LRU links, meaningful while inList
	inList     bool
	pinned     bool
	allocd     bool
}

// New builds DRAM with all frames free.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &DRAM{cfg: cfg, head: -1, tail: -1}, nil
}

// Config returns the DRAM configuration.
func (d *DRAM) Config() Config { return d.cfg }

// FreeFrames returns the number of unallocated frames.
func (d *DRAM) FreeFrames() int { return len(d.free) + d.cfg.Frames - len(d.frames) }

//flatflash:hotpath
func (d *DRAM) detach(f int32) {
	fr := &d.frames[f]
	p, n := fr.prev, fr.next
	if p >= 0 {
		d.frames[p].next = n
	} else {
		d.head = n
	}
	if n >= 0 {
		d.frames[n].prev = p
	} else {
		d.tail = p
	}
	fr.inList = false
}

//flatflash:hotpath
func (d *DRAM) pushFront(f int32) {
	fr := &d.frames[f]
	fr.prev = -1
	fr.next = d.head
	if d.head >= 0 {
		d.frames[d.head].prev = f
	} else {
		d.tail = f
	}
	d.head = f
	fr.inList = true
}

// Alloc takes a free frame (zeroed) and places it at the MRU position.
// Released frames are reused before a frame is used for the first time.
func (d *DRAM) Alloc() (int, error) { return d.alloc(true) }

// AllocUnzeroed is Alloc for a caller that overwrites the whole page before
// anything reads it (a page-in or a promotion): a reused frame keeps its
// previous page's bytes instead of being cleared.
func (d *DRAM) AllocUnzeroed() (int, error) { return d.alloc(false) }

func (d *DRAM) alloc(zero bool) (int, error) {
	var f int
	if n := len(d.free); n > 0 {
		f = d.free[n-1]
		d.free = d.free[:n-1]
		if zero {
			clear(d.frames[f].data)
		}
	} else if len(d.frames) < d.cfg.Frames {
		f = len(d.frames)
		d.frames = append(d.frames, frame{data: make([]byte, d.cfg.PageSize)})
	} else {
		return -1, ErrNoFrames
	}
	d.frames[f].allocd = true
	d.pushFront(int32(f))
	return f, nil
}

// Release returns frame f to the free pool.
func (d *DRAM) Release(f int) error {
	if err := d.check(f); err != nil {
		return err
	}
	if d.frames[f].inList {
		d.detach(int32(f))
	}
	d.frames[f].pinned = false
	d.frames[f].allocd = false
	d.free = append(d.free, f)
	return nil
}

//flatflash:hotpath
func (d *DRAM) check(f int) error {
	if f < 0 || f >= len(d.frames) || !d.frames[f].allocd {
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
	return d.frames[f].data, nil
}

// Touch records a use of frame f (moves it to MRU) and returns the
// cache-line access latency to charge.
//
//flatflash:hotpath
func (d *DRAM) Touch(f int) (sim.Duration, error) {
	if err := d.check(f); err != nil {
		return 0, err
	}
	if d.frames[f].inList && int32(f) != d.head {
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
	if d.frames[f].inList {
		d.detach(int32(f))
	}
	d.frames[f].pinned = true
	return nil
}

// Unpin makes frame f evictable again, at MRU position.
func (d *DRAM) Unpin(f int) error {
	if err := d.check(f); err != nil {
		return err
	}
	if !d.frames[f].pinned {
		return nil
	}
	d.frames[f].pinned = false
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
	for f := d.tail; f >= 0; f = d.frames[f].prev {
		if keep(int(f)) {
			return int(f), true
		}
	}
	return -1, false
}

// Accesses returns the number of cache-line accesses recorded by Touch.
func (d *DRAM) Accesses() int64 { return d.accesses }
