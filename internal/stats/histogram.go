// Package stats provides the measurement primitives used across the
// FlatFlash experiments: log-bucketed latency histograms with percentile
// queries, named counters, and the DRAM/SSD cost model from the paper's
// §5.7 cost-effectiveness analysis.
package stats

import (
	"fmt"
	"math"
	"math/bits"

	"flatflash/internal/sim"
)

// Histogram records latency samples in logarithmic buckets (HDR-style:
// power-of-two magnitude, linear sub-buckets) so that percentile queries are
// cheap and memory use is constant regardless of sample count. Relative
// quantile error is bounded by 1/subBuckets.
type Histogram struct {
	counts [64][subBuckets]int64
	total  int64
	sum    int64
	min    sim.Duration
	max    sim.Duration
}

const subBuckets = 32

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

func bucketOf(v int64) (int, int) {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return 0, int(v)
	}
	mag := 63 - bits.LeadingZeros64(uint64(v))
	// Values in [2^mag, 2^(mag+1)) are split into subBuckets linear slots.
	shift := mag - 5 // log2(subBuckets)
	sub := int((v >> uint(shift)) & (subBuckets - 1))
	return mag - 4, sub
}

// bucketMid returns a representative value for bucket (b, s): the midpoint
// of the value range the bucket covers.
func bucketMid(b, s int) int64 {
	if b == 0 {
		return int64(s)
	}
	mag := b + 4
	shift := mag - 5
	lo := int64(1)<<uint(mag) | int64(s)<<uint(shift)
	return lo + (int64(1)<<uint(shift))/2
}

// Record adds one latency sample.
func (h *Histogram) Record(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	b, s := bucketOf(int64(d))
	h.counts[b][s]++
	h.total++
	h.sum += int64(d)
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the exact sum of all samples. Unlike percentiles, sums do not
// pass through the bucketing, so callers can reconcile component sums against
// an end-to-end total exactly.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact arithmetic mean of the samples (sums are exact;
// only percentiles are bucketed).
func (h *Histogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / h.total)
}

// Min and Max return the exact extremes.
func (h *Histogram) Min() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Percentile returns the approximate p-th percentile (0 < p <= 100).
func (h *Histogram) Percentile(p float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	var seen int64
	for b := 0; b < len(h.counts); b++ {
		for s := 0; s < subBuckets; s++ {
			seen += h.counts[b][s]
			if seen >= rank {
				return sim.Duration(bucketMid(b, s))
			}
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for b := range other.counts {
		for s := range other.counts[b] {
			h.counts[b][s] += other.counts[b][s]
		}
	}
	h.total += other.total
	h.sum += other.sum
	if other.total > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset clears all samples.
func (h *Histogram) Reset() { *h = *NewHistogram() }

// Summary formats count/mean/p50/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
}

// Counters lives in counters.go.
