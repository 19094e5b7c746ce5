// Package mtsim is the multi-tenant co-scheduling engine: it runs N tenants
// concurrently over one shared FlatFlash device, the server-consolidation
// scenario the paper motivates (one byte-addressable SSD serving many
// applications' unified address spaces).
//
// Each tenant has a private address space, workload stream, and virtual
// clock; a deterministic min-heap event loop (sim.EventQueue) interleaves
// their operations in global virtual-time order, so tenants queue against
// each other on the shared PCIe link, SSD-Cache sets, flash channels, and
// promotion path exactly as the device-side resources dictate. A DRAM-budget
// arbiter (promote.Arbiter) extends the paper's adaptive promotion to
// partition host DRAM across tenants by observed promotion benefit.
//
// For QoS accounting, every tenant also gets a solo golden run — the same
// workload and seed on a private, idle device, through the same
// co-scheduling loop with one actor — so the engine reports
// per-tenant slowdown (shared mean latency over solo mean latency) and a
// Jain fairness index over normalized progress.
//
// Every simulation is single-goroutine and seeded, so a (config, seed) pair
// produces byte-identical reports; parallelism only runs a sweep's
// independent points side by side.
package mtsim

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/promote"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// TenantSpec describes one tenant's workload.
type TenantSpec struct {
	Mix         string       // workload.Mixes() name
	Ops         int          // operations to run
	RegionBytes uint64       // mapped region size
	Think       sim.Duration // virtual think time between operations
	Seed        uint64       // per-tenant stream seed (combined with Config.Seed)
}

// Validate checks the spec.
func (ts TenantSpec) Validate() error {
	switch {
	case !workload.MixKnown(ts.Mix):
		return fmt.Errorf("mtsim: unknown mix %q (have %v)", ts.Mix, workload.Mixes())
	case ts.Ops <= 0:
		return fmt.Errorf("mtsim: Ops %d", ts.Ops)
	case ts.RegionBytes < workload.RecordBytes:
		return fmt.Errorf("mtsim: RegionBytes %d below one record", ts.RegionBytes)
	case ts.Think < 0:
		return fmt.Errorf("mtsim: negative Think %v", ts.Think)
	}
	return nil
}

// Config describes one consolidation run.
type Config struct {
	// Device configures the shared FlatFlash device (and each tenant's solo
	// golden device). Nil selects core.DefaultConfig(64 MiB, 4 MiB).
	Device  *core.Config
	Tenants []TenantSpec

	// Seed is the run's base seed, mixed with every tenant's Seed so sweeps
	// can vary either independently.
	Seed uint64

	// DisableArbiter turns off DRAM-budget partitioning (ablation: tenants
	// compete for frames unmanaged, first-hot wins).
	DisableArbiter bool

	// Tracer and Registry instrument the SHARED run (solo golden runs stay
	// uninstrumented so their timing-independent instrumentation cost is
	// zero either way). Both may be nil.
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry

	// Attrib attaches a latency attribution engine to the shared run: every
	// op accumulates a per-component latency breakdown into per-tenant
	// histograms, rendered as the report's latency-budget table. SLO > 0
	// implies Attrib and enables SLO violation/burn accounting plus
	// p99-over-SLO anomaly triggers at epoch boundaries. Like Tracer and
	// Registry, attribution instruments the shared run only.
	Attrib bool
	SLO    sim.Duration
	// Flight attaches a deterministic flight recorder to the shared run;
	// its ring records the run's spans, and anomaly triggers dump the
	// pre-anomaly span window. May be nil.
	Flight *telemetry.FlightRecorder
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Tenants) == 0 {
		return fmt.Errorf("mtsim: no tenants")
	}
	for i, ts := range c.Tenants {
		if err := ts.Validate(); err != nil {
			return fmt.Errorf("tenant %d: %w", i, err)
		}
	}
	return nil
}

// DefaultDeviceConfig returns the device configuration a nil Config.Device
// selects, so callers can tweak one field without re-deriving the geometry.
func DefaultDeviceConfig() core.Config { return core.DefaultConfig(64<<20, 4<<20) }

func (c Config) deviceConfig() core.Config {
	if c.Device != nil {
		return *c.Device
	}
	return DefaultDeviceConfig()
}

// streamSeed mixes the run seed, the tenant seed, and the tenant index with
// splitmix64-style finalization so neighboring configs get unrelated streams.
func streamSeed(base, tenant uint64, idx int) uint64 {
	z := base ^ (tenant * 0x9e3779b97f4a7c15) ^ (uint64(idx+1) * 0xbf58476d1ce4e5b9)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// runOp executes one access op against tenant a, returning the latency the
// tenant's thread observed (including the commit barrier for Barrier ops).
func runOp(a *core.Tenant, base uint64, op workload.AccessOp, scratch []byte) (sim.Duration, error) {
	addr := base + op.Off
	var (
		lat sim.Duration
		err error
	)
	if op.Write {
		lat, err = a.Write(addr, scratch[:op.Len])
	} else {
		lat, err = a.Read(addr, scratch[:op.Len])
	}
	if err != nil {
		return 0, err
	}
	if op.Barrier {
		plat, perr := a.Persist(addr, op.Len)
		if perr != nil {
			return 0, perr
		}
		lat += plat
	}
	return lat, nil
}

// soloRun measures spec alone on a fresh, idle device: the QoS baseline. It
// runs the shared run's co-scheduling loop with one actor, no arbiter and no
// sinks, so a one-tenant shared run reproduces it sample for sample.
func soloRun(dev core.Config, spec TenantSpec, seed uint64) (*actor, error) {
	ff, err := core.NewFlatFlash(dev)
	if err != nil {
		return nil, err
	}
	a, err := newActor(ff.SelfTenant(), spec, seed)
	if err != nil {
		return nil, err
	}
	return a, coSchedule([]*actor{a})
}

// Run executes the consolidation: one solo golden run per tenant, then the
// shared run with all tenants interleaved on one device in global
// virtual-time order. Sweep runs its points concurrently, so Run stays
// confined to its arguments.
//
//flatflash:lp
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dev := cfg.deviceConfig()

	res := &Result{
		Seed:      cfg.Seed,
		ArbiterOn: !cfg.DisableArbiter,
		Tenants:   make([]TenantResult, len(cfg.Tenants)),
	}
	for i, spec := range cfg.Tenants {
		a, err := soloRun(dev, spec, streamSeed(cfg.Seed, spec.Seed, i))
		if err != nil {
			return nil, fmt.Errorf("mtsim: solo run of tenant %d: %w", i, err)
		}
		res.Tenants[i] = TenantResult{ID: i, Spec: spec, Solo: a.hist, SoloElapsed: a.t.Now().Sub(0)}
	}
	if err := sharedRun(cfg, dev, res); err != nil {
		return nil, err
	}
	// Fairness folds the solo baselines into the shared latencies, so it
	// must wait for every run — it is the one cross-run reduction.
	res.Fairness = stats.JainFairness(progress(res.Tenants))
	return res, nil
}

// sharedRun executes the shared portion of the consolidation — one device,
// every tenant an actor on it — and fills the shared fields of res. It may
// run concurrently with other sweep points' runs.
//
//flatflash:lp
func sharedRun(cfg Config, dev core.Config, res *Result) error {
	ff, err := core.NewFlatFlash(dev)
	if err != nil {
		return err
	}
	ff.Instrument(cfg.Tracer, cfg.Registry)
	ff.SetFlightRecorder(cfg.Flight)
	if cfg.Attrib || cfg.SLO > 0 {
		att := telemetry.NewAttribution(cfg.SLO, 0)
		ff.SetAttribution(att)
		res.Attribution = att
	}
	tenants := make([]*core.Tenant, len(cfg.Tenants))
	tenants[0] = ff.SelfTenant()
	for i := 1; i < len(cfg.Tenants); i++ {
		t, err := ff.OpenTenant()
		if err != nil {
			return err
		}
		tenants[i] = t
	}
	if !cfg.DisableArbiter {
		arb, err := promote.NewArbiter(promote.DefaultArbiterConfig(int(dev.DRAMBytes / uint64(dev.PageSize))))
		if err != nil {
			return err
		}
		ff.SetArbiter(arb)
	}

	actors := make([]*actor, len(tenants))
	for i, spec := range cfg.Tenants {
		if actors[i], err = newActor(tenants[i], spec, streamSeed(cfg.Seed, spec.Seed, i)); err != nil {
			return fmt.Errorf("mtsim: tenant %d: %w", i, err)
		}
	}
	if err := coSchedule(actors); err != nil {
		return err
	}

	for i := range res.Tenants {
		tr := &res.Tenants[i]
		tr.Shared = actors[i].hist
		tr.Elapsed = tenants[i].Now().Sub(0)
		tr.DRAMHits = tenants[i].DRAMHits()
		tr.Promotions = tenants[i].Promotions()
		if arb := ff.Arbiter(); arb != nil {
			tr.Budget = arb.Budget(i)
		}
	}
	ff.Attribution().Finish(ff.Now())
	res.Makespan = ff.Now().Sub(0)
	res.Counters = ff.Counters()
	return nil
}

// actor is one tenant's closed-loop client: its mapped region, its workload
// stream, the operations it has left and the latencies it observed.
type actor struct {
	t         *core.Tenant
	think     sim.Duration
	base      uint64
	stream    workload.Stream
	remaining int
	hist      *stats.Histogram
}

// newActor maps spec's region on t, persistent when the mix issues
// barriers, and seeds its workload stream.
func newActor(t *core.Tenant, spec TenantSpec, seed uint64) (*actor, error) {
	mmap := t.Mmap
	if workload.MixPersistent(spec.Mix) {
		mmap = t.MmapPersistent
	}
	reg, err := mmap(spec.RegionBytes)
	if err != nil {
		return nil, err
	}
	stream, err := workload.NewStream(spec.Mix, sim.NewRNG(seed), spec.RegionBytes)
	if err != nil {
		return nil, err
	}
	return &actor{t: t, think: spec.Think, base: reg.Base, stream: stream, remaining: spec.Ops, hist: stats.NewHistogram()}, nil
}

// coSchedule is the co-scheduling loop: it always executes the actor whose
// next operation starts earliest in global virtual time (ties to the lower
// index), so the interleaving — and therefore all shared-resource queueing —
// is a pure function of the configuration.
func coSchedule(actors []*actor) error {
	var q sim.EventQueue
	scratch := make([]byte, workload.RecordBytes)
	for i, a := range actors {
		q.Push(a.t.Now(), i)
	}
	for q.Len() > 0 {
		_, id := q.Pop()
		a := actors[id]
		lat, err := runOp(a.t, a.base, a.stream.Next(), scratch)
		if err != nil {
			return fmt.Errorf("mtsim: tenant %d op: %w", id, err)
		}
		a.hist.Record(lat)
		a.remaining--
		if a.remaining > 0 {
			if a.think > 0 {
				a.t.AdvanceTo(a.t.Now().Add(a.think))
			}
			q.Push(a.t.Now(), id)
		}
	}
	return nil
}

// progress returns each tenant's normalized progress: solo mean latency over
// shared mean latency (1.0 = no slowdown; equal values = perfectly fair).
func progress(trs []TenantResult) []float64 {
	out := make([]float64, len(trs))
	for i := range trs {
		out[i] = 1 / trs[i].Slowdown()
	}
	return out
}
