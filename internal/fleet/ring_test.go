package fleet

import (
	"math"
	"sort"
	"testing"

	"flatflash/internal/sim"
)

// Satellite property test 1: with enough vnodes, consistent hashing keeps
// every shard's share of a sampled keyspace within ±15% of the ideal 1/M,
// across several seeds and shard counts.
func TestRingBalance(t *testing.T) {
	// 1024 vnodes per shard keeps the worst observed deviation under ~9%
	// across this grid; 256 vnodes would wander past 15%.
	const (
		vnodes = 1024
		keys   = 100_000
	)
	for _, seed := range []uint64{1, 42, 0xfeedface} {
		for _, shards := range []int{2, 3, 4, 8, 16} {
			r, err := NewRing(shards, vnodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, shards)
			for k := uint64(0); k < keys; k++ {
				counts[r.Lookup(k)]++
			}
			ideal := float64(keys) / float64(shards)
			for s, n := range counts {
				dev := (float64(n) - ideal) / ideal
				if dev < -0.15 || dev > 0.15 {
					t.Errorf("seed=%d shards=%d: shard %d owns %d keys, %.1f%% off the ideal %.0f",
						seed, shards, s, n, dev*100, ideal)
				}
			}
		}
	}
}

// Satellite property test 1b: growing a ring from M to M+1 shards remaps at
// most about 1/(M+1) of a sampled keyspace, and every remapped key lands on
// the new shard — the consistent-hashing minimal-remap property.
func TestRingMinimalRemapOnAdd(t *testing.T) {
	const (
		vnodes = 256
		keys   = 100_000
	)
	for _, seed := range []uint64{1, 42} {
		for _, shards := range []int{2, 4, 8} {
			small, err := NewRing(shards, vnodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			big, err := NewRing(shards+1, vnodes, seed)
			if err != nil {
				t.Fatal(err)
			}
			moved := 0
			for k := uint64(0); k < keys; k++ {
				before, after := small.Lookup(k), big.Lookup(k)
				if before == after {
					continue
				}
				moved++
				if after != shards {
					t.Fatalf("seed=%d shards=%d: key %d moved %d->%d, not to the new shard %d",
						seed, shards, k, before, after, shards)
				}
			}
			// The new shard should take ~1/(M+1) of the keys; allow 60% slack
			// for hashing variance at this sample size.
			limit := int(1.6 * float64(keys) / float64(shards+1))
			if moved > limit {
				t.Errorf("seed=%d shards=%d: adding one shard remapped %d/%d keys, limit %d",
					seed, shards, moved, keys, limit)
			}
			if moved == 0 {
				t.Errorf("seed=%d shards=%d: adding a shard moved nothing", seed, shards)
			}
		}
	}
}

// Removing the last shard only remaps the keys it owned (about 1/M), and
// every surviving shard keeps exactly the keys it had.
func TestRingMinimalRemapOnRemove(t *testing.T) {
	const (
		vnodes = 256
		keys   = 100_000
		seed   = uint64(9)
	)
	for _, shards := range []int{3, 5, 8} {
		big, err := NewRing(shards, vnodes, seed)
		if err != nil {
			t.Fatal(err)
		}
		small, err := NewRing(shards-1, vnodes, seed)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for k := uint64(0); k < keys; k++ {
			before, after := big.Lookup(k), small.Lookup(k)
			if before == shards-1 {
				moved++
				continue // the removed shard's keys must scatter somewhere else
			}
			if before != after {
				t.Fatalf("shards=%d: key %d on surviving shard %d remapped to %d",
					shards, k, before, after)
			}
		}
		limit := int(1.6 * float64(keys) / float64(shards))
		if moved == 0 || moved > limit {
			t.Errorf("shards=%d: removing one shard touched %d/%d keys, want (0, %d]",
				shards, moved, keys, limit)
		}
	}
}

func TestRingValidates(t *testing.T) {
	if _, err := NewRing(0, 8, 1); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := NewRing(2, 0, 1); err == nil {
		t.Error("zero vnodes accepted")
	}
	if _, err := NewRing(1<<17, 1<<16, 1); err == nil {
		t.Error("a ring of 2^33 points accepted")
	}
	if _, err := PinnedRing(2, 2); err == nil {
		t.Error("pinned owner outside ring accepted")
	}
	if _, err := PinnedRing(0, 0); err == nil {
		t.Error("pinned ring with zero shards accepted")
	}
}

func TestPinnedRingRoutesEverythingToOwner(t *testing.T) {
	r, err := PinnedRing(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", r.Shards())
	}
	for k := uint64(0); k < 10_000; k++ {
		if got := r.Lookup(k); got != 2 {
			t.Fatalf("key %d routed to %d, want pinned owner 2", k, got)
		}
	}
}

// Lookup is a pure function of (ring config, key): two rings built from the
// same parameters agree everywhere.
func TestRingDeterministic(t *testing.T) {
	a, err := NewRing(5, 64, 77)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(5, 64, 77)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 50_000; k++ {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("same ring config disagrees on key %d", k)
		}
	}
}

// searchLookup is the ring's lookup by binary search over every point: the
// first point at or after the key's hash, wrapping to point 0.
func searchLookup(r *Ring, key uint64) int {
	h := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// TestRingMatchesSearch: the bucket-indexed Lookup returns exactly the shard
// a binary search over the sorted points returns, for random keys on rings
// of 1-8 shards and 1-256 vnodes, keys that hash past the largest point
// (the wrap to point 0) among them, and on rings whose points share hashes.
func TestRingMatchesSearch(t *testing.T) {
	t.Run("random", testRingMatchesSearchRandom)
	t.Run("duplicates", testRingMatchesSearchDuplicates)
}

func testRingMatchesSearchRandom(t *testing.T) {
	rng := sim.NewRNG(33)
	wrapped := 0
	for trial := 0; trial < 200; trial++ {
		shards := 1 + int(rng.Uint64n(8))
		vnodes := 1 + int(rng.Uint64n(256))
		seed := rng.Uint64()
		r, err := NewRing(shards, vnodes, seed)
		if err != nil {
			t.Fatal(err)
		}
		last := r.points[len(r.points)-1].h
		for n := 0; n < 2000; n++ {
			key := rng.Uint64()
			if keyHash(key) > last {
				wrapped++
			}
			if got, want := r.Lookup(key), searchLookup(r, key); got != want {
				t.Fatalf("shards=%d vnodes=%d seed=%#x key=%#x: Lookup %d, search %d",
					shards, vnodes, seed, key, got, want)
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no key hashed past the largest point; the wrap went untested")
	}
}

// Points that share a hash (across shards, at the circle's ends) resolve as
// the binary search does, to the lowest shard of the first point at or after
// the key.
func testRingMatchesSearchDuplicates(t *testing.T) {
	rng := sim.NewRNG(34)
	keys := make([]uint64, 64)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	for _, shards := range []int{1, 2, 5, 8} {
		var points []ringPoint
		for i, k := range keys {
			// Every key's own hash is a point, owned by up to three shards.
			for c := 0; c <= i%3; c++ {
				points = append(points, ringPoint{h: keyHash(k), shard: (i + 2*c) % shards})
			}
		}
		points = append(points,
			ringPoint{h: 0, shard: shards - 1}, ringPoint{h: 0, shard: 0},
			ringPoint{h: math.MaxUint64, shard: shards - 1}, ringPoint{h: math.MaxUint64, shard: 0},
			ringPoint{h: keyHash(keys[0]) + 1, shard: shards - 1})
		r := newRing(shards, points)
		probe := append([]uint64(nil), keys...)
		for i := 0; i < 5000; i++ {
			probe = append(probe, rng.Uint64())
		}
		for _, key := range probe {
			if got, want := r.Lookup(key), searchLookup(r, key); got != want {
				t.Fatalf("shards=%d key=%#x: Lookup %d, search %d", shards, key, got, want)
			}
		}
	}
}
