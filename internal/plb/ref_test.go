package plb

import (
	"bytes"
	"testing"

	"flatflash/internal/sim"
)

// refPLB is the PLB written the long way, kept as the reference FuzzPLB
// checks PLB against: Start snapshots the source page into the entry and
// leaves the frame alone, each arriving line is copied from the snapshot
// into the frame one at a time, loads of a line not yet copied read the
// snapshot, and every lookup and poll scans all entries.
type refPLB struct {
	cfg     Config
	entries []refEntry
	nLines  int

	started, completed, droppedInbound, redirectedStores int64
	lookups, routed, aborted                             int64
}

type refEntry struct {
	valid         bool
	lpn           uint32
	frame         int
	copied, byCPU uint64
	start         sim.Time
	deadline      sim.Time
	src, dst      []byte
	dirty         bool
}

func newRef(cfg Config) *refPLB {
	return &refPLB{cfg: cfg, entries: make([]refEntry, cfg.Entries), nLines: cfg.PageSize / cfg.CacheLineSize}
}

func (p *refPLB) find(lpn uint32) *refEntry {
	for i := range p.entries {
		if p.entries[i].valid && p.entries[i].lpn == lpn {
			return &p.entries[i]
		}
	}
	return nil
}

func (p *refPLB) Start(now sim.Time, lpn uint32, frame int, src, dst []byte, srcDirty bool) error {
	if len(src) != p.cfg.PageSize || len(dst) != p.cfg.PageSize {
		return ErrBadBuffer
	}
	if p.find(lpn) != nil {
		return ErrInFlight
	}
	for i := range p.entries {
		if !p.entries[i].valid {
			p.entries[i] = refEntry{
				valid:    true,
				lpn:      lpn,
				frame:    frame,
				start:    now,
				deadline: now.Add(p.cfg.PromotionLatency),
				src:      bytes.Clone(src),
				dst:      dst,
				dirty:    srcDirty,
			}
			p.started++
			return nil
		}
	}
	return ErrFull
}

// progress copies every line that has arrived by now and that no CPU store
// reached first; an arriving line a store did reach is dropped, once.
func (p *refPLB) progress(e *refEntry, now sim.Time) {
	perLine := p.cfg.PromotionLatency / sim.Duration(p.nLines)
	done := min(int(now.Sub(e.start)/perLine), p.nLines)
	for i := 0; i < done; i++ {
		bit := uint64(1) << uint(i)
		if e.copied&bit != 0 {
			if e.byCPU&bit != 0 {
				p.droppedInbound++
				e.byCPU &^= bit
			}
			continue
		}
		off := i * p.cfg.CacheLineSize
		copy(e.dst[off:off+p.cfg.CacheLineSize], e.src[off:])
		e.copied |= bit
	}
}

func (p *refPLB) Access(now sim.Time, lpn uint32, off int, buf []byte, isStore bool) Route {
	p.lookups++
	e := p.find(lpn)
	if e == nil {
		return RouteNone
	}
	p.routed++
	line := off / p.cfg.CacheLineSize
	lo := line * p.cfg.CacheLineSize
	p.progress(e, now)
	bit := uint64(1) << uint(line)
	if isStore {
		if e.copied&bit == 0 {
			copy(e.dst[lo:lo+p.cfg.CacheLineSize], e.src[lo:])
		}
		copy(e.dst[off:], buf)
		e.copied |= bit
		e.byCPU |= bit
		e.dirty = true
		p.redirectedStores++
		return RouteDRAM
	}
	if e.copied&bit != 0 {
		copy(buf, e.dst[off:])
		return RouteDRAM
	}
	copy(buf, e.src[off:])
	return RouteSSD
}

// finish copies e's remaining lines, frees it, and reports it at time at.
func (p *refPLB) finish(e *refEntry, at sim.Time) Completion {
	p.progress(e, e.deadline.Add(p.cfg.PromotionLatency))
	c := Completion{LPN: e.lpn, Frame: e.frame, Deadline: at, Dirty: e.dirty}
	*e = refEntry{}
	p.completed++
	return c
}

func (p *refPLB) Expired(now sim.Time) []Completion {
	var out []Completion
	for i := range p.entries {
		if e := &p.entries[i]; e.valid && !e.deadline.After(now) {
			out = append(out, p.finish(e, e.deadline))
		}
	}
	return out
}

func (p *refPLB) Flush(now sim.Time) []Completion {
	var out []Completion
	for i := range p.entries {
		if e := &p.entries[i]; e.valid {
			out = append(out, p.finish(e, e.deadline.Max(now)))
		}
	}
	return out
}

func (p *refPLB) AbortAll() []Aborted {
	var out []Aborted
	for i := range p.entries {
		if e := &p.entries[i]; e.valid {
			out = append(out, Aborted{LPN: e.lpn, Frame: e.frame})
			*e = refEntry{}
			p.aborted++
		}
	}
	return out
}

func (p *refPLB) pending() int {
	n := 0
	for i := range p.entries {
		if p.entries[i].valid {
			n++
		}
	}
	return n
}

func (p *refPLB) HitRatio() float64 {
	if p.lookups == 0 {
		return 0
	}
	return float64(p.routed) / float64(p.lookups)
}

// Program opcodes for FuzzPLB, each followed by its operand bytes.
const (
	opStart   = iota // lpn, dirty, fill
	opBurst          // lpn, fill, count: Starts at consecutive lpns
	opLoad           // lpn, line, shape[, len]
	opStore          // lpn, line, shape[, len], fill
	opForward        // clock += n·latency/256
	opBack           // clock -= n·latency/256 (may precede a flight's start)
	opExpired
	opFlush // gate: runs when its operand is below 64
	opAbort // gate: runs when its operand is below 64
)

// opTable maps an opcode byte's low five bits to an op. Accesses and clock
// steps outweigh the calls that end flights, so flights overlap and live
// through many accesses.
var opTable = [32]int{
	opStart, opStart, opStart, opStart, opStart, opBurst,
	opLoad, opLoad, opLoad, opLoad, opLoad, opLoad, opLoad, opLoad,
	opStore, opStore, opStore, opStore, opStore, opStore,
	opForward, opForward, opForward, opForward, opBack, opBack,
	opExpired, opExpired, opExpired, opExpired, opFlush, opAbort,
}

// FuzzPLB runs one random program against PLB and refPLB in lockstep. A
// program starts flights, singly and in bursts that fill every slot
// (ErrFull and ErrInFlight included), issues whole-line and partial loads
// and stores, moves the clock forward and back, and polls Expired, Flush
// and AbortAll. Every route, loaded byte, completion list, abort list,
// Pending, Stats and HitRatio must match, and so must each completed
// flight's frame. An aborted flight's frame is abandoned, so only its
// existence is compared. The seeds are random programs over every
// geometry the first byte selects.
func FuzzPLB(f *testing.F) {
	rng := sim.NewRNG(1)
	for seed := 0; seed < 64; seed++ {
		prog := make([]byte, 64+rng.Intn(1024))
		for i := range prog {
			prog[i] = byte(rng.Uint64())
		}
		prog[0] = byte(seed)
		f.Add(prog)
	}
	f.Fuzz(runLockstep)
}

// lockstepGeometries are the (entries, page, line) configurations the
// first program byte picks from: single-slot, small, a second busy-bitmap
// word, and 64 lines per page (the all-lines mask).
var lockstepGeometries = []struct{ entries, page, line int }{
	{1, 256, 64}, {4, 256, 64}, {66, 256, 64}, {3, 512, 8},
}

func runLockstep(t *testing.T, prog []byte) {
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	g := lockstepGeometries[next()%len(lockstepGeometries)]
	cfg := DefaultConfig()
	cfg.Entries, cfg.PageSize, cfg.CacheLineSize = g.entries, g.page, g.line
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := newRef(cfg)
	lat := cfg.PromotionLatency
	lpns := cfg.Entries + 2       // few enough that accesses often find a flight
	frames := map[int][2][]byte{} // frame -> {PLB's dst, reference's dst}
	nextFrame := 0
	now := sim.Time(lat) // room to step back before the first start

	// completions checks one batch of completions and the frames they
	// finished.
	completions := func(op string, g, w []Completion) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s at %d: %v, reference %v", op, now, g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s at %d: completion %d = %+v, reference %+v", op, now, i, g[i], w[i])
			}
			fr := frames[g[i].Frame]
			if !bytes.Equal(fr[0], fr[1]) {
				t.Fatalf("%s at %d: frame %d differs from the reference", op, now, g[i].Frame)
			}
			delete(frames, g[i].Frame)
		}
	}
	start := func(step int, lpn uint32, dirty bool, fill byte) {
		src := make([]byte, cfg.PageSize)
		dsts := [2][]byte{make([]byte, cfg.PageSize), make([]byte, cfg.PageSize)}
		for i := range src {
			src[i] = fill + byte(i)
			dsts[0][i], dsts[1][i] = 0xA5^byte(i), 0xA5^byte(i)
		}
		ge := got.Start(now, lpn, nextFrame, src, dsts[0], dirty)
		we := want.Start(now, lpn, nextFrame, src, dsts[1], dirty)
		if ge != we {
			t.Fatalf("step %d: Start(lpn %d) = %v, reference %v", step, lpn, ge, we)
		}
		if ge != nil && !bytes.Equal(dsts[0], dsts[1]) {
			t.Fatalf("step %d: a failed Start wrote the frame", step)
		}
		if ge == nil {
			frames[nextFrame] = dsts
		}
		nextFrame++
		clear(src) // the caller's buffer is free once Start returns
	}
	for step := 0; len(prog) > 0; step++ {
		switch op := opTable[next()%len(opTable)]; op {
		case opStart:
			start(step, uint32(next()%lpns), next()&1 == 1, byte(next()))
		case opBurst:
			first, fill, n := next(), byte(next()), next()%(cfg.Entries+2)
			for k := 0; k < n; k++ {
				start(step, uint32((first+k)%lpns), k&1 == 1, fill+byte(k))
			}
		case opLoad, opStore:
			lpn, line := uint32(next()%lpns), next()%(cfg.PageSize/cfg.CacheLineSize)
			lo := line * cfg.CacheLineSize
			off, n := lo, cfg.CacheLineSize
			if shape := next(); shape&1 == 1 { // a byte range inside the line
				off += (shape >> 1) % cfg.CacheLineSize
				n = 1 + next()%(lo+cfg.CacheLineSize-off)
			}
			bufs := [2][]byte{make([]byte, n), make([]byte, n)}
			if op == opStore {
				fill := byte(next())
				for i := range bufs[0] {
					bufs[0][i], bufs[1][i] = fill^byte(i), fill^byte(i)
				}
			}
			gr := got.Access(now, lpn, off, bufs[0], op == opStore)
			wr := want.Access(now, lpn, off, bufs[1], op == opStore)
			if gr != wr {
				t.Fatalf("step %d: Access(lpn %d, off %d, len %d, store %v) routed %v, reference %v",
					step, lpn, off, n, op == opStore, gr, wr)
			}
			if !bytes.Equal(bufs[0], bufs[1]) {
				t.Fatalf("step %d: load of lpn %d at %d read %x, reference %x", step, lpn, off, bufs[0], bufs[1])
			}
		case opForward:
			now = now.Add(sim.Duration(next()) * lat / 256)
		case opBack:
			now = now.Add(-sim.Duration(next()) * lat / 256)
		case opExpired:
			completions("Expired", got.Expired(now), want.Expired(now))
		case opFlush:
			if next() >= 64 {
				break
			}
			completions("Flush", got.Flush(now), want.Flush(now))
		case opAbort:
			if next() >= 64 {
				break
			}
			ga, wa := got.AbortAll(), want.AbortAll()
			if len(ga) != len(wa) {
				t.Fatalf("step %d: AbortAll = %v, reference %v", step, ga, wa)
			}
			for i := range ga {
				if ga[i] != wa[i] {
					t.Fatalf("step %d: aborted %d = %+v, reference %+v", step, i, ga[i], wa[i])
				}
				delete(frames, ga[i].Frame)
			}
			if got.AbortedCount() != want.aborted {
				t.Fatalf("step %d: AbortedCount = %d, reference %d", step, got.AbortedCount(), want.aborted)
			}
		}
		if got.Pending() != want.pending() {
			t.Fatalf("step %d: Pending = %d, reference %d", step, got.Pending(), want.pending())
		}
		gs, gc, gd, gr := got.Stats()
		if gs != want.started || gc != want.completed || gd != want.droppedInbound || gr != want.redirectedStores {
			t.Fatalf("step %d: Stats = %d/%d/%d/%d, reference %d/%d/%d/%d", step, gs, gc, gd, gr,
				want.started, want.completed, want.droppedInbound, want.redirectedStores)
		}
		if got.HitRatio() != want.HitRatio() {
			t.Fatalf("step %d: HitRatio = %v, reference %v", step, got.HitRatio(), want.HitRatio())
		}
	}
	completions("final Flush", got.Flush(now), want.Flush(now))
	if len(frames) != 0 {
		t.Fatalf("%d flights neither completed nor aborted", len(frames))
	}
}
