// Package fleet scales FlatFlash past a single device: M independent
// devices (each a full PR 3 tenant/arbiter substrate) sit behind a front
// end that shards the global address space with a consistent-hash ring,
// queues requests per shard in bounded FIFOs with batched MMIO issue, sheds
// load under SLO pressure, and migrates hot pages off shards whose DRAM
// promotion budget saturates. Driven by the open-loop arrival generator in
// internal/workload, it is the "millions of users" step of the ROADMAP's
// north star.
//
// Like mtsim, a fleet run is seeded: a configuration names one byte-exact
// report. Its shards drain on sim.Workers goroutines behind the arrival
// coordinator, which waits for them before every migration epoch boundary
// and at the end (see run), so the bytes do not depend on GOMAXPROCS. A
// sweep runs its independent fleet instances on the same workers.
package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// Ring is a consistent-hash ring over the shard set: every shard owns
// VNodes pseudo-random points on a 64-bit circle, and a key belongs to the
// shard owning the first point at or after the key's hash. Adding or
// removing one shard only moves the keys adjacent to that shard's points —
// about 1/M of the keyspace — which is what keeps promotion state and page
// placement stable as the fleet resizes.
type Ring struct {
	shards int
	points []ringPoint
	pinned int // >= 0 routes every key there (degenerate/test rings)

	// first[b] is the index of the first point whose hash is at or above
	// b<<shift, the start of bucket b of the circle (len(points) when
	// there is none), so Lookup starts its scan there.
	first []uint32
	shift uint
}

type ringPoint struct {
	h     uint64
	shard int
}

// NewRing builds a ring of shards*vnodes points. A shard's points depend
// only on (shard, seed), never on the shard count, so growing a ring from M
// to M+1 shards with the same seed reuses every surviving point — the
// consistent-hashing minimal-remap property the ring test enforces.
func NewRing(shards, vnodes int, seed uint64) (*Ring, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one shard, got %d", shards)
	}
	if vnodes <= 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one vnode per shard, got %d", vnodes)
	}
	if uint64(shards)*uint64(vnodes) > math.MaxUint32 {
		return nil, fmt.Errorf("fleet: ring of %d shards x %d vnodes exceeds 2^32 points", shards, vnodes)
	}
	points := make([]ringPoint, 0, shards*vnodes)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, ringPoint{h: pointHash(seed, uint64(s), uint64(v)), shard: s})
		}
	}
	return newRing(shards, points), nil
}

// maxBucketBits caps the bucket index at 4096 entries (16 KiB).
const maxBucketBits = 12

// newRing sorts points into ring order and indexes them by bucket: the
// top k bits of a hash pick one of 2^k equal arcs, with k the smallest
// giving at least two buckets per point, up to maxBucketBits.
func newRing(shards int, points []ringPoint) *Ring {
	sort.Slice(points, func(i, j int) bool {
		if points[i].h != points[j].h {
			return points[i].h < points[j].h
		}
		// Hash collisions resolve by shard id so the ring order is a pure
		// function of (shards, vnodes, seed).
		return points[i].shard < points[j].shard
	})
	k := min(bits.Len(uint(len(points)-1))+1, maxBucketBits)
	r := &Ring{
		shards: shards,
		points: points,
		pinned: -1,
		first:  make([]uint32, 1<<k),
		shift:  uint(64 - k),
	}
	i := 0
	for b := range r.first {
		for i < len(points) && points[i].h>>r.shift < uint64(b) {
			i++
		}
		r.first[b] = uint32(i)
	}
	return r
}

// PinnedRing returns a degenerate ring that reports shards shards but maps
// every key to owner — the routing the fleet-vs-single-device equivalence
// test uses ("a 2-shard fleet where the ring maps everything to shard 0").
func PinnedRing(shards, owner int) (*Ring, error) {
	if shards <= 0 || owner < 0 || owner >= shards {
		return nil, fmt.Errorf("fleet: pinned ring owner %d outside %d shards", owner, shards)
	}
	return &Ring{shards: shards, pinned: owner}, nil
}

// Shards returns the shard count the ring routes across.
func (r *Ring) Shards() int { return r.shards }

// Lookup returns the shard owning key.
func (r *Ring) Lookup(key uint64) int {
	if r.pinned >= 0 {
		return r.pinned
	}
	h := keyHash(key)
	// Every point before first[b] hashes below bucket b's start, so below
	// h: the scan finds the first point at or after h, as a binary search
	// over all points would.
	i := int(r.first[h>>r.shift])
	for i < len(r.points) && r.points[i].h < h {
		i++
	}
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the largest hash
	}
	return r.points[i].shard
}

// pointHash places vnode v of shard s on the circle, mixed from the seed
// with splitmix64-style finalization.
func pointHash(seed, s, v uint64) uint64 {
	z := seed ^ (s+1)*0x9e3779b97f4a7c15 ^ (v+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// keyHash maps a key onto the circle. It is ring-independent: the same key
// hashes to the same point whatever the shard count, which is what makes
// ring resizes minimal-remap.
func keyHash(key uint64) uint64 {
	z := key + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
