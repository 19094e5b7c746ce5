package fleet

import (
	"fmt"
	"io"
	"sort"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Shards is the device count M.
	Shards int
	// VNodes is the ring points per shard; 0 selects the default (128).
	VNodes int
	// RingSeed seeds vnode placement. It is independent of the arrival seed
	// so a sweep can vary traffic without reshuffling placement.
	RingSeed uint64

	// Device configures every shard's device; nil selects the mtsim default
	// (64 MiB SSD, 4 MiB DRAM).
	Device *core.Config

	// Arrivals is the open-loop traffic offered to the whole fleet.
	Arrivals workload.ArrivalConfig

	// Server is every shard's queueing/batching/admission policy.
	Server mtsim.ServerOptions

	// Ring overrides the consistent-hash ring (tests and the degenerate
	// single-owner routing). Nil builds NewRing(Shards, VNodes, RingSeed).
	Ring *Ring

	// MigrateEpoch enables cross-shard page migration: every epoch, a shard
	// whose promotion churn saturated its DRAM frame budget hands its
	// hottest pages to the least-loaded shard. 0 disables migration.
	MigrateEpoch sim.Duration
	// MigratePages bounds pages moved per shard per epoch; 0 selects 8.
	MigratePages int
	// MigrateLat is the per-page copy cost charged to both devices; 0
	// selects 20µs (a page transit over the inter-shard link).
	MigrateLat sim.Duration

	// Parallel is how many goroutines drain the shards' arrival batches; 0
	// or 1 drains them in-line. Reports and flight dumps are byte-identical
	// at any value. A shared flight recorder (a single-writer sink) keeps
	// the drain in-line regardless. Outside tests only the perf harness
	// sets it (perf/workload.go, for its fleet workload and probes); the
	// CLIs and sweeps leave it at 0.
	Parallel int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards <= 0 {
		return fmt.Errorf("fleet: shard count %d", c.Shards)
	}
	if c.VNodes < 0 {
		return fmt.Errorf("fleet: vnodes %d", c.VNodes)
	}
	if c.Ring != nil && c.Ring.Shards() != c.Shards {
		return fmt.Errorf("fleet: ring routes %d shards, config has %d", c.Ring.Shards(), c.Shards)
	}
	if c.MigrateEpoch < 0 || c.MigratePages < 0 || c.MigrateLat < 0 {
		return fmt.Errorf("fleet: negative migration parameter")
	}
	if c.Parallel < 0 {
		return fmt.Errorf("fleet: negative parallel worker count %d", c.Parallel)
	}
	if err := c.Arrivals.Validate(); err != nil {
		return err
	}
	return c.Server.Validate()
}

func (c Config) deviceConfig() core.Config {
	if c.Device != nil {
		return *c.Device
	}
	return mtsim.DefaultDeviceConfig()
}

// Result is the outcome of one fleet run.
type Result struct {
	Shards     []*mtsim.Server
	Arrivals   workload.ArrivalConfig
	SLO        sim.Duration
	Migrations int64
	// MigrateEpochNS echoes the migration epoch for the report header.
	MigrateEpochNS int64
	// KeyShare is each shard's fraction of routed arrivals.
	KeyShare []float64
}

// Run executes the fleet: arrivals stream from the generator in virtual-time
// order, route through the ring (as overridden by migrations) at page
// granularity, and queue on their shard's server. Seeded and
// byte-deterministic whatever cfg.Parallel is.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := workload.NewArrivalGen(cfg.Arrivals)
	if err != nil {
		return nil, err
	}
	ring := cfg.Ring
	if ring == nil {
		vnodes := cfg.VNodes
		if vnodes == 0 {
			vnodes = 128
		}
		ring, err = NewRing(cfg.Shards, vnodes, cfg.RingSeed)
		if err != nil {
			return nil, err
		}
	}
	dev := cfg.deviceConfig()
	servers := make([]*mtsim.Server, cfg.Shards)
	for i := range servers {
		servers[i], err = mtsim.NewServer(dev, cfg.Arrivals.MixSpec, cfg.Arrivals.RegionBytes, cfg.Server)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
	}

	res := &Result{
		Shards:         servers,
		Arrivals:       cfg.Arrivals,
		SLO:            cfg.Server.SLO,
		MigrateEpochNS: int64(cfg.MigrateEpoch),
		KeyShare:       make([]float64, cfg.Shards),
	}
	routed, err := run(cfg, gen, ring, servers, dev, &res.Migrations)
	if err != nil {
		return nil, err
	}
	for _, s := range servers {
		s.Finish()
	}
	total := int64(0)
	for _, n := range routed {
		total += n
	}
	for i, n := range routed {
		if total > 0 {
			res.KeyShare[i] = float64(n) / float64(total)
		}
	}
	return res, nil
}

// batchLimit is how many routed arrivals the coordinator buffers before it
// flushes them to the shards. Reports do not depend on it; it only sets how
// much device work one fan-out amortizes.
const batchLimit = 4096

// run is the fleet's event loop. Arrivals stream from the generator in
// virtual-time order; the migrator's overrides and the ring pick each one's
// shard, and it joins that shard's buffer. The buffers flush before every
// epoch boundary and whenever batchLimit arrivals wait. Routing only changes
// at a boundary and shards share no state, so between two flushes the order
// in which different shards serve their arrivals cannot change any result.
func run(cfg Config, gen *workload.ArrivalGen, ring *Ring, servers []*mtsim.Server, dev core.Config, migrations *int64) ([]int64, error) {
	b := &batch{
		m:        newMigrator(cfg, servers),
		pageSize: uint64(dev.PageSize),
		bufs:     make([][]workload.Arrival, cfg.Shards),
		limit:    batchLimit,
		workers:  cfg.Parallel,
	}
	if cfg.Server.Flight != nil {
		// Every shard triggers into the one recorder, whose trigger order is
		// part of its dump: hand arrivals over one at a time, in order.
		b.limit, b.workers = 1, 1
	}
	routed := make([]int64, cfg.Shards)
	for a, ok := gen.Next(); ok; a, ok = gen.Next() {
		if b.n >= b.limit || b.m.due(a.At) {
			if err := b.flush(); err != nil {
				return nil, err
			}
			b.m.maybeRebalance(a.At, migrations)
		}
		page := a.Op.Off / b.pageSize
		sh := b.m.owner(page)
		if sh < 0 {
			sh = ring.Lookup(page)
		}
		routed[sh]++
		b.bufs[sh] = append(b.bufs[sh], a)
		b.n++
	}
	return routed, b.flush()
}

// batch holds each shard's routed-but-unserved arrivals.
type batch struct {
	m        *migrator
	pageSize uint64
	bufs     [][]workload.Arrival
	n        int // arrivals buffered across all shards
	limit    int
	workers  int
}

// flush drains every shard's buffer on up to b.workers goroutines. Errors
// surface in shard-index order.
func (b *batch) flush() error {
	if b.n == 0 {
		return nil
	}
	b.n = 0
	return sim.ForEach(len(b.bufs), b.workers, b.drain)
}

// drain serves shard sh's buffered arrivals in arrival order and records
// their admissions in the shard's epoch heat. Drains of different shards run
// concurrently, so it touches only shard sh's buffer, server, and heat.
//
//flatflash:lp
func (b *batch) drain(sh int) error {
	srv := b.m.servers[sh]
	for _, a := range b.bufs[sh] {
		admitted, err := srv.Arrive(a.At, a.Op)
		if err != nil {
			return fmt.Errorf("fleet: shard %d arrival at %d: %w", sh, a.At, err)
		}
		b.m.observe(sh, a.Op.Off/b.pageSize, admitted)
	}
	b.bufs[sh] = b.bufs[sh][:0]
	return nil
}

// migrator tracks per-epoch page heat and promotion churn and rebalances
// ownership when a shard's DRAM budget saturates. With MigrateEpoch == 0 it
// is inert and allocation-free, so the degenerate equivalence runs pay
// nothing for it.
type migrator struct {
	cfg      Config
	servers  []*mtsim.Server
	override map[uint64]int // page -> shard, set by migrations
	heat     []map[uint64]int64
	admitted []int64
	promoted []int64 // promotion count at the last epoch boundary
	next     sim.Time
	pages    int
	lat      sim.Duration
}

func newMigrator(cfg Config, servers []*mtsim.Server) *migrator {
	m := &migrator{cfg: cfg, servers: servers}
	if cfg.MigrateEpoch <= 0 || cfg.Shards < 2 {
		return m
	}
	m.override = make(map[uint64]int)
	m.heat = make([]map[uint64]int64, cfg.Shards)
	for i := range m.heat {
		m.heat[i] = make(map[uint64]int64)
	}
	m.admitted = make([]int64, cfg.Shards)
	m.promoted = make([]int64, cfg.Shards)
	m.next = sim.Time(0).Add(cfg.MigrateEpoch)
	m.pages = cfg.MigratePages
	if m.pages == 0 {
		m.pages = 8
	}
	m.lat = cfg.MigrateLat
	if m.lat == 0 {
		m.lat = 20 * sim.Microsecond
	}
	return m
}

func (m *migrator) enabled() bool { return m.override != nil }

// owner returns the migrated owner of page, or -1 for ring routing.
func (m *migrator) owner(page uint64) int {
	if sh, ok := m.override[page]; ok {
		return sh
	}
	return -1
}

// observe records one served arrival for shard sh's epoch heat accounting.
// It touches only shard sh's entries, so shards may observe concurrently.
func (m *migrator) observe(sh int, page uint64, admitted bool) {
	if !m.enabled() || !admitted {
		return
	}
	m.heat[sh][page]++
	m.admitted[sh]++
}

// due reports whether an arrival at now crosses an epoch boundary.
func (m *migrator) due(now sim.Time) bool {
	return m.enabled() && now >= m.next
}

// maybeRebalance runs the epoch boundaries at or before now. Every arrival
// before the first of them must already be served and observed.
func (m *migrator) maybeRebalance(now sim.Time, migrations *int64) {
	for m.due(now) {
		m.rebalance(m.next, migrations)
		m.next = m.next.Add(m.cfg.MigrateEpoch)
	}
}

// pageHeat is one page's admitted-arrival count inside an epoch.
type pageHeat struct {
	page uint64
	n    int64
}

// sortHeat flattens an epoch heat map into the deterministic selection
// order — count descending, page ascending — so page choice is a pure
// function of the run so far, never of map iteration.
//
//flatflash:deterministic
func sortHeat(heat map[uint64]int64) []pageHeat {
	hot := make([]pageHeat, 0, len(heat))
	for page, n := range heat {
		hot = append(hot, pageHeat{page, n})
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].page < hot[j].page
	})
	return hot
}

// rebalance runs one epoch boundary: every saturated shard (promotion churn
// since the last boundary at or above its DRAM frame budget) hands its
// hottest pages to the least-loaded shard — an ownership override plus a
// copy-cost Occupy on both devices per page — then the epoch accounting
// resets. Churn is read for every shard before any copy is charged.
func (m *migrator) rebalance(at sim.Time, migrations *int64) {
	churn := make([]int64, len(m.servers))
	for i, s := range m.servers {
		churn[i] = s.Promotions() - m.promoted[i]
	}
	for src, s := range m.servers {
		if churn[src] < int64(s.DRAMFrames()) || len(m.heat[src]) == 0 {
			continue
		}
		dst := -1
		for cand := range m.servers {
			if cand != src && (dst < 0 || m.admitted[cand] < m.admitted[dst]) {
				dst = cand
			}
		}
		if dst < 0 || m.admitted[dst] >= m.admitted[src] {
			continue // nowhere meaningfully cooler to move to
		}
		hot := sortHeat(m.heat[src])
		if len(hot) > m.pages {
			hot = hot[:m.pages]
		}
		for _, ph := range hot {
			m.override[ph.page] = dst
			s.Occupy(at, m.lat)
			m.servers[dst].Occupy(at, m.lat)
			*migrations++
		}
	}
	for i := range m.servers {
		m.heat[i] = make(map[uint64]int64)
		m.admitted[i] = 0
		m.promoted[i] = m.servers[i].Promotions()
	}
}

// Aggregates.

// Admitted returns the fleet-wide admitted request count.
func (r *Result) Admitted() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Admitted()
	}
	return n
}

// Shed returns the fleet-wide shed count.
func (r *Result) Shed() int64 {
	var n int64
	for _, s := range r.Shards {
		n += s.Shed()
	}
	return n
}

// ShedRate returns the fleet-wide shed fraction of offered requests.
func (r *Result) ShedRate() float64 {
	var offered int64
	for _, s := range r.Shards {
		offered += s.Arrivals()
	}
	if offered == 0 {
		return 0
	}
	return float64(r.Shed()) / float64(offered)
}

// Makespan returns the latest shard frontier.
func (r *Result) Makespan() sim.Duration {
	var worst sim.Duration
	for _, s := range r.Shards {
		if m := s.Makespan(); m > worst {
			worst = m
		}
	}
	return worst
}

// Throughput returns fleet-wide admitted requests per virtual second.
func (r *Result) Throughput() float64 {
	if r.Makespan() <= 0 {
		return 0
	}
	return float64(r.Admitted()) / r.Makespan().Seconds()
}

// Hist returns the merged admitted-request response-time histogram.
func (r *Result) Hist() *stats.Histogram {
	merged := stats.NewHistogram()
	for _, s := range r.Shards {
		merged.Merge(s.Hist())
	}
	return merged
}

// Fairness returns the Jain index over per-shard admitted throughput: 1.0
// when the ring spreads load evenly, 1/M when one shard serves everything.
// Unlike stats.JainFairness (which skips inactive accounts), idle shards
// count against the fleet: a starved shard is the imbalance being measured.
func (r *Result) Fairness() float64 {
	var sum, sumSq float64
	for _, s := range r.Shards {
		x := float64(s.Admitted())
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(r.Shards)) * sumSq)
}

// Write renders the run deterministically: a fleet header, one line per
// shard (the same bytes flatflash-sim -openloop prints for its one shard),
// and the fleet aggregate line.
func (r *Result) Write(w io.Writer) error {
	a := r.Arrivals
	if _, err := fmt.Fprintf(w, "fleet shards=%d mix=%s ops=%d rate=%.1f clients=%d amp=%.2f seed=%d slo_ns=%d migrate_epoch_ns=%d\n",
		len(r.Shards), a.MixSpec, a.Ops, a.Rate, a.Clients, a.DiurnalAmp, a.Seed, int64(r.SLO), r.MigrateEpochNS); err != nil {
		return err
	}
	for i, s := range r.Shards {
		if err := s.WriteReport(w, i); err != nil {
			return err
		}
	}
	hist := r.Hist()
	_, err := fmt.Fprintf(w, "  fleet admitted=%d shed=%d shed_rate=%.4f ops_per_s=%.1f p99_ns=%d fairness=%.4f migrations=%d makespan_ns=%d\n",
		r.Admitted(), r.Shed(), r.ShedRate(), r.Throughput(), int64(hist.Percentile(99)),
		r.Fairness(), r.Migrations, int64(r.Makespan()))
	return err
}
