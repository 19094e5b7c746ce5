// Package promote implements FlatFlash's adaptive page-promotion policy —
// Algorithm 1 of the paper, verbatim. The policy decides, on every memory
// access that reaches the SSD, whether the touched page has shown enough
// reuse to be promoted to host DRAM, and adapts its promotion threshold to
// the observed page-reuse ratio so that high-reuse workloads promote eagerly
// while low-reuse (random) workloads stay in byte-granular MMIO mode.
package promote

import (
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Params are Algorithm 1's tunables, listed with the paper's initial values.
type Params struct {
	LwRatio      float64 // 0.25: below this reuse ratio, promote less
	HiRatio      float64 // 0.75: above this reuse ratio, promote more
	MaxThreshold int     // 7: upper bound (and reset value) for CurrThreshold
	ResetEpoch   int64   // 10_000 accesses per adaptation epoch
}

// DefaultParams returns the paper's values.
func DefaultParams() Params {
	return Params{LwRatio: 0.25, HiRatio: 0.75, MaxThreshold: 7, ResetEpoch: 10_000}
}

// Policy is the adaptive promotion state machine. The SSD-Cache owns the
// per-page counters (Algorithm 1's PageCntArray lives in the cache entries);
// Policy owns the aggregates.
type Policy struct {
	params Params

	obs *telemetry.Sink // nil when instrumentation is disabled
	now func() sim.Time

	// Algorithm 1 state, same names as the paper:
	netAggCnt       int64 // sum of pageCnt over pages currently cached
	accessCnt       int64 // accesses to the SSD-Cache this epoch
	aggPromotedCnt  int64 // sum of pageCnt values that reached the threshold
	currThreshold   int
	promotionsTotal int64
	epochs          int64
}

// New returns a policy with CurrThreshold = MaxThreshold, as in the paper.
func New(p Params) *Policy {
	if p.MaxThreshold < 1 {
		panic("promote: MaxThreshold must be >= 1")
	}
	if p.ResetEpoch < 1 {
		panic("promote: ResetEpoch must be >= 1")
	}
	return &Policy{params: p, currThreshold: p.MaxThreshold}
}

// SetSink attaches the instrumentation sink: threshold-change and
// epoch-reset events on the SSD track; now supplies timestamps (the policy
// has no clock). A nil sink disables emission.
func (p *Policy) SetSink(s *telemetry.Sink, now func() sim.Time) {
	p.obs, p.now = s, now
}

// Threshold returns the current promotion threshold (for tests and stats).
func (p *Policy) Threshold() int { return p.currThreshold }

// Promotions returns the total number of promotions triggered.
func (p *Policy) Promotions() int64 { return p.promotionsTotal }

// Epochs returns how many ResetEpoch boundaries have passed.
func (p *Policy) Epochs() int64 { return p.epochs }

// NetAggCnt returns the current NetAggCnt aggregate (for crash tests).
func (p *Policy) NetAggCnt() int64 { return p.netAggCnt }

// Reset clears the Algorithm 1 working state to its power-on values: the
// aggregates live in controller SRAM and do not survive power loss, so a
// crash returns CurrThreshold to MaxThreshold and zeroes the counters.
// Simulator-side cumulative statistics (Promotions, Epochs) are kept — they
// describe the whole run, not the controller's volatile state.
func (p *Policy) Reset() {
	p.netAggCnt = 0
	p.accessCnt = 0
	p.aggPromotedCnt = 0
	p.currThreshold = p.params.MaxThreshold
}

// Update is Algorithm 1's UPDATE procedure. It must be called on every
// memory access to the SSD with the page's access counter *after* the cache
// incremented it (pageCnt = ++PageCntArray[set][way]). It reports whether
// the page should be promoted now.
func (p *Policy) Update(pageCnt int) (promote bool) {
	p.netAggCnt++
	p.accessCnt++
	promoteFlag := pageCnt == p.currThreshold
	if promoteFlag {
		p.aggPromotedCnt += int64(pageCnt)
		p.promotionsTotal++
	}
	before := p.currThreshold
	currRatio := float64(p.aggPromotedCnt) / float64(p.accessCnt)
	if currRatio <= p.params.LwRatio {
		if p.currThreshold < p.params.MaxThreshold {
			p.currThreshold++
		}
	} else if currRatio >= p.params.HiRatio {
		if p.currThreshold > 1 && promoteFlag {
			p.currThreshold--
		}
	}
	if p.accessCnt >= p.params.ResetEpoch {
		// Epoch reset: preserve the in-cache access pattern by seeding
		// AccessCnt with NetAggCnt instead of rescanning PageCntArray.
		p.accessCnt = p.netAggCnt
		p.aggPromotedCnt = 0
		p.currThreshold = p.params.MaxThreshold
		p.epochs++
		// The guard skips the p.now clock read when no sink is attached.
		if p.obs != nil {
			at := p.now()
			p.obs.Observe(telemetry.EvEpochReset, telemetry.TrackSSD, at, at, p.epochs)
		}
	}
	// The guard skips the p.now clock read when no sink is attached.
	if p.obs != nil && p.currThreshold != before {
		at := p.now()
		p.obs.Observe(telemetry.EvThreshold, telemetry.TrackSSD, at, at, int64(p.currThreshold))
	}
	return promoteFlag
}

// AdjustCnt is Algorithm 1's ADJUST_CNT procedure, invoked when a page
// leaves the SSD-Cache (eviction or promotion completion) with the page's
// final access counter. The cache zeroes its per-page counter; the policy
// removes its contribution from NetAggCnt.
func (p *Policy) AdjustCnt(pageCnt int) {
	p.netAggCnt -= int64(pageCnt)
	if p.netAggCnt < 0 {
		p.netAggCnt = 0
	}
}

// FixedPolicy is the ablation baseline DESIGN.md calls out: a constant
// promotion threshold with no adaptation (the "naive + counter" strawman of
// §3.4). It satisfies the same call pattern as Policy.
type FixedPolicy struct {
	threshold  int
	promotions int64
}

// NewFixed returns a fixed-threshold policy.
func NewFixed(threshold int) *FixedPolicy {
	if threshold < 1 {
		panic("promote: threshold must be >= 1")
	}
	return &FixedPolicy{threshold: threshold}
}

// Update reports whether pageCnt just reached the fixed threshold.
func (f *FixedPolicy) Update(pageCnt int) bool {
	hit := pageCnt == f.threshold
	if hit {
		f.promotions++
	}
	return hit
}

// AdjustCnt is a no-op for the fixed policy.
func (f *FixedPolicy) AdjustCnt(pageCnt int) {}

// SetSink is a no-op: the fixed policy has no adaptation to report.
func (f *FixedPolicy) SetSink(s *telemetry.Sink, now func() sim.Time) {}

// Threshold returns the fixed threshold.
func (f *FixedPolicy) Threshold() int { return f.threshold }

// Promotions returns the number of promotions triggered.
func (f *FixedPolicy) Promotions() int64 { return f.promotions }

// NetAggCnt is always 0: the fixed policy keeps no aggregate.
func (f *FixedPolicy) NetAggCnt() int64 { return 0 }

// Reset is a no-op: the fixed threshold is configuration, not volatile state.
func (f *FixedPolicy) Reset() {}

// Promoter is the interface the SSD-Cache manager drives; both the adaptive
// Policy and the FixedPolicy ablation satisfy it.
type Promoter interface {
	Update(pageCnt int) bool
	AdjustCnt(pageCnt int)
	Threshold() int
	Promotions() int64
	// NetAggCnt returns the volatile aggregate (0 for policies without one).
	NetAggCnt() int64
	// Reset restores the policy's volatile state to power-on values after a
	// power loss; cumulative run statistics survive.
	Reset()
	// SetSink attaches instrumentation (nil disables it; now supplies
	// timestamps).
	SetSink(s *telemetry.Sink, now func() sim.Time)
}

var (
	_ Promoter = (*Policy)(nil)
	_ Promoter = (*FixedPolicy)(nil)
)
