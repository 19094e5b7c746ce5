package workload

import (
	"fmt"
	"sort"

	"flatflash/internal/sim"
)

// RecordBytes is the byte-granular record size the access mixes issue. It
// matches the paper's Redis evaluation, where objects are far smaller than a
// page and byte-accessibility is what saves the page-sized traffic.
const RecordBytes = 64

// AccessOp is one byte-granular memory access an application issues against
// its mapped region: an offset/length pair, a read/write direction, and an
// optional persistence barrier after the write (§3.5, transaction commit).
type AccessOp struct {
	Off     uint64
	Len     int
	Write   bool
	Barrier bool
}

// Stream generates an application's access sequence. Implementations are
// deterministic functions of the seeding RNG, so a (mix, seed, region) triple
// names a reproducible workload.
type Stream interface {
	Next() AccessOp
}

// streamSpec registers one named mix.
type streamSpec struct {
	persistent bool // needs MmapPersistent (issues Barrier ops)
	build      func(rng *sim.RNG, regionBytes uint64) Stream
}

var streamSpecs = map[string]streamSpec{
	// zipf: skewed read-mostly point accesses (30% writes) over scrambled
	// Zipfian records — the paper's core locality assumption.
	"zipf": {build: func(rng *sim.RNG, regionBytes uint64) Stream {
		return &keyedStream{
			keys:   NewScrambledZipf(rng, slots(regionBytes), DefaultZipfTheta),
			rng:    rng,
			writeP: 0.30,
		}
	}},
	// uniform: no locality, 5% writes — the adversarial case for promotion.
	"uniform": {build: func(rng *sim.RNG, regionBytes uint64) Stream {
		return &keyedStream{
			keys:   NewUniform(rng, slots(regionBytes)),
			rng:    rng,
			writeP: 0.05,
		}
	}},
	// ycsb-b and ycsb-d: the paper's Redis workloads (§5.4) replayed as raw
	// record accesses.
	"ycsb-b": {build: func(rng *sim.RNG, regionBytes uint64) Stream {
		return &ycsbStream{y: NewYCSB('B', rng, slots(regionBytes), DefaultZipfTheta), slots: slots(regionBytes)}
	}},
	"ycsb-d": {build: func(rng *sim.RNG, regionBytes uint64) Stream {
		return &ycsbStream{y: NewYCSB('D', rng, slots(regionBytes), DefaultZipfTheta), slots: slots(regionBytes)}
	}},
	// scan: sequential read sweep — an analytics tenant that pollutes caches
	// and hogs link bandwidth without rewarding promotion.
	"scan": {build: func(rng *sim.RNG, regionBytes uint64) Stream {
		return &scanStream{slots: slots(regionBytes)}
	}},
	// txlog: a transactional tenant — Zipfian read of the data half, then a
	// sequential commit-record append to the log half with a persistence
	// barrier (Figure 5's logging pattern).
	"txlog": {persistent: true, build: func(rng *sim.RNG, regionBytes uint64) Stream {
		half := slots(regionBytes) / 2
		if half == 0 {
			half = 1
		}
		return &txlogStream{
			data:     NewScrambledZipf(rng, half, DefaultZipfTheta),
			dataHalf: half,
			logSlots: slots(regionBytes) - half,
		}
	}},
}

// Mixes returns the registered mix names in sorted order.
//
//flatflash:deterministic
func Mixes() []string {
	out := make([]string, 0, len(streamSpecs))
	for name := range streamSpecs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// MixKnown reports whether name is a registered mix.
func MixKnown(name string) bool {
	_, ok := streamSpecs[name]
	return ok
}

// MixPersistent reports whether the named mix issues persistence barriers and
// therefore needs a persistent mapping. Unknown names report false.
func MixPersistent(name string) bool {
	return streamSpecs[name].persistent
}

// NewStream builds the named mix over a region of regionBytes bytes, drawing
// randomness only from rng. regionBytes must hold at least one record.
func NewStream(name string, rng *sim.RNG, regionBytes uint64) (Stream, error) {
	spec, ok := streamSpecs[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown mix %q (have %v)", name, Mixes())
	}
	if regionBytes < RecordBytes {
		return nil, fmt.Errorf("workload: region %d B below one %d B record", regionBytes, RecordBytes)
	}
	return spec.build(rng, regionBytes), nil
}

// slots returns how many records fit the region.
func slots(regionBytes uint64) uint64 { return regionBytes / RecordBytes }

// keyedStream turns a key-popularity generator into record accesses with a
// fixed write probability.
type keyedStream struct {
	keys interface{ Next() uint64 }
	rng  *sim.RNG
	// writeP is consumed after the key draw so the key sequence matches the
	// underlying generator's.
	writeP float64
}

func (s *keyedStream) Next() AccessOp {
	key := s.keys.Next()
	return AccessOp{
		Off:   key * RecordBytes,
		Len:   RecordBytes,
		Write: s.rng.Float64() < s.writeP,
	}
}

// ycsbStream replays YCSB operations as record accesses. Workload D inserts
// grow the key space; keys wrap onto the fixed region.
type ycsbStream struct {
	y     *YCSB
	slots uint64
}

func (s *ycsbStream) Next() AccessOp {
	op := s.y.Next()
	return AccessOp{
		Off:   (op.Key % s.slots) * RecordBytes,
		Len:   RecordBytes,
		Write: op.Kind != OpRead,
	}
}

// scanStream reads records sequentially, wrapping at the region end.
type scanStream struct {
	slots uint64
	next  uint64
}

func (s *scanStream) Next() AccessOp {
	op := AccessOp{Off: s.next * RecordBytes, Len: RecordBytes}
	s.next = (s.next + 1) % s.slots
	return op
}

// txlogStream alternates a Zipfian data-half read with a sequential log-half
// append committed by a persistence barrier.
type txlogStream struct {
	data     *ScrambledZipf
	dataHalf uint64
	logSlots uint64
	logNext  uint64
	commit   bool
}

func (s *txlogStream) Next() AccessOp {
	if s.commit {
		s.commit = false
		// A one-slot region has no log half (logSlots == 0); the commit
		// record then lands on slot 0 so the op stays inside the region.
		off := uint64(0)
		if s.logSlots > 0 {
			off = (s.dataHalf + s.logNext%s.logSlots) * RecordBytes
			s.logNext++
		}
		return AccessOp{
			Off:     off,
			Len:     RecordBytes,
			Write:   true,
			Barrier: true,
		}
	}
	s.commit = true
	return AccessOp{Off: s.data.Next() * RecordBytes, Len: RecordBytes}
}
