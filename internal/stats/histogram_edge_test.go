package stats

import (
	"math"
	"testing"

	"flatflash/internal/sim"
)

// refLeadingZeros is the bit-by-bit loop bucketOf used before it called
// bits.LeadingZeros64; it stays here as the oracle for the bucket index.
func refLeadingZeros(x uint64) int {
	n := 0
	for i := 63; i >= 0; i-- {
		if x&(1<<uint(i)) != 0 {
			return n
		}
		n++
	}
	return 64
}

// refBucketOf is bucketOf computed with refLeadingZeros.
func refBucketOf(v int64) (int, int) {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return 0, int(v)
	}
	mag := 63 - refLeadingZeros(uint64(v))
	shift := mag - 5
	return mag - 4, int((v >> uint(shift)) & (subBuckets - 1))
}

// TestBucketOfMatchesReference checks bucketOf against the reference loop
// at zero, around every power of two up to 2^62, at the extremes, and on
// random values of every magnitude.
func TestBucketOfMatchesReference(t *testing.T) {
	check := func(v int64) {
		b, s := bucketOf(v)
		rb, rs := refBucketOf(v)
		if b != rb || s != rs {
			t.Fatalf("bucketOf(%d) = (%d, %d), reference (%d, %d)", v, b, s, rb, rs)
		}
	}
	check(0)
	check(-1)
	check(math.MaxInt64)
	for k := 0; k <= 62; k++ {
		p := int64(1) << k
		check(p - 1)
		check(p)
		check(p + 1)
	}
	rng := sim.NewRNG(11)
	for i := 0; i < 10000; i++ {
		// A random magnitude first, so small values are as common as large.
		check(int64(rng.Uint64() >> (1 + rng.Intn(63))))
	}
}

// TestHistogramPowerOfTwoBoundaries records values straddling power-of-two
// bucket boundaries and checks the invariants the log-bucketing must keep:
// exact count/sum/min/max, and percentile estimates within one bucket width
// of the recorded value.
func TestHistogramPowerOfTwoBoundaries(t *testing.T) {
	for _, base := range []int64{32, 64, 1024, 1 << 20, 1 << 40} {
		for _, v := range []int64{base - 1, base, base + 1} {
			h := NewHistogram()
			h.Record(sim.Duration(v))
			if h.Count() != 1 || h.Sum() != v {
				t.Fatalf("v=%d: count=%d sum=%d", v, h.Count(), h.Sum())
			}
			if h.Min() != sim.Duration(v) || h.Max() != sim.Duration(v) {
				t.Fatalf("v=%d: min=%d max=%d", v, h.Min(), h.Max())
			}
			got := int64(h.Percentile(50))
			// Relative quantile error is bounded by one linear sub-bucket:
			// 1/32 of the value's power-of-two range.
			slack := v/16 + 1
			if got < v-slack || got > v+slack {
				t.Fatalf("v=%d: p50=%d outside ±%d", v, got, slack)
			}
		}
	}
}

// TestHistogramNegativeAndZero checks that zero records land in the first
// bucket and negative samples clamp to zero instead of corrupting a bucket
// index.
func TestHistogramNegativeAndZero(t *testing.T) {
	h := NewHistogram()
	h.Record(0)
	h.Record(-5)
	h.Record(sim.Duration(-1 << 40))
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("min=%d max=%d, want 0/0 (negatives clamp)", h.Min(), h.Max())
	}
	if p := h.Percentile(99); p != 0 {
		t.Fatalf("p99 = %d, want 0", p)
	}
}

// TestHistogramMergeMatchesCombined merges two histograms and checks the
// result is indistinguishable from recording every sample into one.
func TestHistogramMergeMatchesCombined(t *testing.T) {
	a, b, both := NewHistogram(), NewHistogram(), NewHistogram()
	rng := sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		v := sim.Duration(rng.Intn(1 << 22))
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
		both.Record(v)
	}
	a.Merge(b)
	if a.Count() != both.Count() || a.Sum() != both.Sum() {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", a.Count(), a.Sum(), both.Count(), both.Sum())
	}
	if a.Min() != both.Min() || a.Max() != both.Max() {
		t.Fatalf("merged min/max = %d/%d, want %d/%d", a.Min(), a.Max(), both.Min(), both.Max())
	}
	for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
		if a.Percentile(p) != both.Percentile(p) {
			t.Fatalf("p%.1f: merged %d, combined %d", p, a.Percentile(p), both.Percentile(p))
		}
	}
}

// TestHistogramQuantileMonotonic checks that Percentile is non-decreasing in
// p over an adversarial mix of tiny, boundary, and huge values.
func TestHistogramQuantileMonotonic(t *testing.T) {
	h := NewHistogram()
	rng := sim.NewRNG(11)
	for i := 0; i < 2000; i++ {
		switch i % 4 {
		case 0:
			h.Record(sim.Duration(rng.Intn(32))) // first linear bucket
		case 1:
			h.Record(sim.Duration(1 << uint(5+rng.Intn(30)))) // power-of-two boundaries
		case 2:
			h.Record(sim.Duration(rng.Intn(1 << 44))) // wide range
		default:
			h.Record(0)
		}
	}
	prev := sim.Duration(-1)
	for p := 0.5; p <= 100; p += 0.5 {
		q := h.Percentile(p)
		if q < prev {
			t.Fatalf("p%.1f = %d < previous %d: quantiles not monotone", p, q, prev)
		}
		prev = q
	}
	if h.Percentile(100) != h.Max() {
		t.Fatalf("p100 = %d, want max %d", h.Percentile(100), h.Max())
	}
}

// TestHistogramSumExact checks the Sum accessor bypasses bucketing: the sum
// is exact even when percentile estimates are not.
func TestHistogramSumExact(t *testing.T) {
	h := NewHistogram()
	var want int64
	for i := int64(1); i <= 1000; i++ {
		v := i*i*7 + 3
		h.Record(sim.Duration(v))
		want += v
	}
	if h.Sum() != want {
		t.Fatalf("Sum = %d, want exact %d", h.Sum(), want)
	}
	h.Reset()
	if h.Sum() != 0 || h.Count() != 0 {
		t.Fatalf("after Reset: sum=%d count=%d", h.Sum(), h.Count())
	}
}
