package promote

import (
	"fmt"

	"flatflash/internal/sim"
)

// ArbiterConfig sizes the multi-tenant DRAM-budget arbiter.
type ArbiterConfig struct {
	// TotalFrames is the number of host DRAM page frames being partitioned
	// (the promotion destination pool).
	TotalFrames int
	// MinShare is the frame budget every tenant keeps even with zero
	// observed benefit, so a quiet tenant can always re-demonstrate reuse.
	// It defaults to 1 and is capped so that minimum shares never exceed
	// the pool.
	MinShare int
	// Epoch is the virtual-time interval between budget recomputations.
	Epoch sim.Duration
	// Smoothing is the EWMA weight of the newest epoch's benefit in (0, 1];
	// higher values react faster to phase changes.
	Smoothing float64
}

// DefaultArbiterConfig returns the arbiter defaults for totalFrames frames:
// 1-frame minimum shares, 200 µs epochs, and a 0.5 smoothing factor.
func DefaultArbiterConfig(totalFrames int) ArbiterConfig {
	return ArbiterConfig{
		TotalFrames: totalFrames,
		MinShare:    1,
		Epoch:       sim.Micros(200),
		Smoothing:   0.5,
	}
}

// Validate checks the configuration.
func (c ArbiterConfig) Validate() error {
	switch {
	case c.TotalFrames <= 0:
		return fmt.Errorf("promote: arbiter TotalFrames %d", c.TotalFrames)
	case c.MinShare < 0:
		return fmt.Errorf("promote: arbiter MinShare %d", c.MinShare)
	case c.Epoch <= 0:
		return fmt.Errorf("promote: arbiter Epoch %v", c.Epoch)
	case c.Smoothing <= 0 || c.Smoothing > 1:
		return fmt.Errorf("promote: arbiter Smoothing %f", c.Smoothing)
	}
	return nil
}

// Arbiter extends the paper's adaptive promotion (§3.4, §3.5) to server
// consolidation: when several tenants contend for one FlatFlash device, host
// DRAM for promoted pages is the scarcest resource, and Algorithm 1 alone
// would let the first hot tenant squat on every frame. The arbiter
// partitions the frame pool into per-tenant budgets and rebalances them
// every Epoch of virtual time in proportion to each tenant's observed
// promotion benefit — DRAM hits its promoted pages absorbed during the
// epoch, smoothed with an EWMA. A tenant at or over budget must recycle its
// own frames instead of evicting a neighbor's.
//
// Everything is integer, order-independent arithmetic over tenant ids, so a
// fixed access interleaving produces a fixed budget trajectory.
type Arbiter struct {
	cfg     ArbiterConfig
	started bool
	next    sim.Time

	frames  []int     // frames currently held, by tenant id
	hits    []int64   // DRAM hits this epoch, by tenant id
	budgets []int     // current frame budgets, by tenant id
	scores  []float64 // EWMA of per-epoch hits, by tenant id

	rebalances int64
}

// NewArbiter builds an arbiter over the configured frame pool. Tenants join
// with AddTenant.
func NewArbiter(cfg ArbiterConfig) (*Arbiter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Arbiter{cfg: cfg}, nil
}

// AddTenant registers tenant ids 0..id (ids are dense and assigned by the
// hierarchy in open order) and resets budgets to an equal split.
func (a *Arbiter) AddTenant(id int) {
	for len(a.frames) <= id {
		a.frames = append(a.frames, 0)
		a.hits = append(a.hits, 0)
		a.budgets = append(a.budgets, 0)
		a.scores = append(a.scores, 0)
	}
	// Until benefit is observed, split the pool evenly.
	a.split(make([]float64, len(a.scores)))
}

// Tenants returns the number of registered tenants.
func (a *Arbiter) Tenants() int { return len(a.budgets) }

// Allow reports whether tenant id may take one more frame from the shared
// pool. A tenant at or over its budget must recycle its own frames.
func (a *Arbiter) Allow(id int) bool {
	if id < 0 || id >= len(a.budgets) {
		return true
	}
	return a.frames[id] < a.budgets[id]
}

// NoteFrame records tenant id acquiring (delta = +1) or releasing
// (delta = -1) one DRAM frame.
func (a *Arbiter) NoteFrame(id, delta int) {
	if id < 0 || id >= len(a.frames) {
		return
	}
	a.frames[id] += delta
	if a.frames[id] < 0 {
		a.frames[id] = 0
	}
}

// NoteHit records one DRAM hit for tenant id — the benefit signal: a hit on
// a promoted page is an SSD access the tenant's DRAM share saved.
func (a *Arbiter) NoteHit(id int) {
	if id < 0 || id >= len(a.hits) {
		return
	}
	a.hits[id]++
}

// ResetFrames zeroes all frame holdings (a crash released every frame).
func (a *Arbiter) ResetFrames() {
	for i := range a.frames {
		a.frames[i] = 0
	}
}

// Tick observes virtual time and rebalances budgets at every epoch
// boundary. The hierarchy calls it on each access; between boundaries it is
// two comparisons.
func (a *Arbiter) Tick(now sim.Time) {
	if !a.started {
		a.started = true
		a.next = now.Add(a.cfg.Epoch)
		return
	}
	for !a.next.After(now) {
		a.rebalance()
		a.next = a.next.Add(a.cfg.Epoch)
	}
}

// rebalance folds this epoch's hits into the EWMA scores and recomputes
// budgets proportionally.
func (a *Arbiter) rebalance() {
	for i := range a.scores {
		a.scores[i] = a.cfg.Smoothing*float64(a.hits[i]) + (1-a.cfg.Smoothing)*a.scores[i]
		a.hits[i] = 0
	}
	a.split(a.scores)
	a.rebalances++
}

// split assigns budgets: MinShare each (capped so minimums fit the pool),
// remainder proportional to scores by largest remainder with ties broken by
// lower tenant id. A zero score vector degrades to an equal split.
func (a *Arbiter) split(scores []float64) {
	n := len(a.budgets)
	if n == 0 {
		return
	}
	minShare := a.cfg.MinShare
	if minShare*n > a.cfg.TotalFrames {
		minShare = a.cfg.TotalFrames / n
	}
	pool := a.cfg.TotalFrames - minShare*n
	var total float64
	for _, s := range scores {
		total += s
	}
	if total <= 0 {
		// No benefit signal anywhere: equal split of the whole pool.
		base := a.cfg.TotalFrames / n
		extra := a.cfg.TotalFrames - base*n
		for i := range a.budgets {
			a.budgets[i] = base
			if i < extra {
				a.budgets[i]++
			}
		}
		return
	}
	type rem struct {
		id   int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, s := range scores {
		exact := float64(pool) * s / total
		whole := int(exact)
		a.budgets[i] = minShare + whole
		assigned += whole
		rems[i] = rem{id: i, frac: exact - float64(whole)}
	}
	// Largest remainder first; ties to the lower tenant id (stable because
	// ids are distinct).
	for assigned < pool {
		best := -1
		for i := range rems {
			if rems[i].id < 0 {
				continue
			}
			if best < 0 || rems[i].frac > rems[best].frac {
				best = i
			}
		}
		a.budgets[rems[best].id]++
		rems[best].id = -1
		assigned++
	}
}

// Budget returns tenant id's current frame budget.
func (a *Arbiter) Budget(id int) int {
	if id < 0 || id >= len(a.budgets) {
		return 0
	}
	return a.budgets[id]
}

// Frames returns how many frames tenant id currently holds.
func (a *Arbiter) Frames(id int) int {
	if id < 0 || id >= len(a.frames) {
		return 0
	}
	return a.frames[id]
}

// Budgets returns a copy of all budgets indexed by tenant id.
func (a *Arbiter) Budgets() []int {
	out := make([]int, len(a.budgets))
	copy(out, a.budgets)
	return out
}

// Rebalances returns how many epoch boundaries have recomputed budgets.
func (a *Arbiter) Rebalances() int64 { return a.rebalances }
