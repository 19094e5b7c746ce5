package mtsim

import (
	"fmt"
	"io"
	"strings"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// SweepConfig fans consolidation runs out over (tenant count × mix spec ×
// seed). Each point is an independent simulator instance, so points run in
// parallel on sim.Workers goroutines; results are merged in point-index
// order, which keeps the report byte-identical whatever GOMAXPROCS is.
type SweepConfig struct {
	// Device configures every point's device (nil → mtsim default).
	Device *core.Config

	// TenantCounts, MixSpecs, and Seeds define the sweep grid in nested
	// order: for each tenant count, for each mix spec, for each seed.
	TenantCounts []int
	// MixSpecs are "+"-separated mix lists ("zipf+scan") cycled across the
	// point's tenants: tenant i runs the i-th mix modulo the list length.
	MixSpecs []string
	Seeds    []uint64

	// Ops, RegionBytes, and Think apply to every tenant.
	Ops         int
	RegionBytes uint64
	Think       sim.Duration

	DisableArbiter bool

	// Tracer and Registry instrument every point's shared run (see
	// Config.Tracer). Both may be nil. Every point shares them, so
	// attaching either runs the points in-line, in grid order.
	Tracer   *telemetry.Tracer
	Registry *telemetry.Registry

	// Attrib and SLO enable latency attribution on every point's shared run
	// (see Config.Attrib). Each point gets a private engine, carried on its
	// Result, so attribution alone does not force sequential execution.
	Attrib bool
	SLO    sim.Duration
	// Flight attaches one shared flight recorder to every point's shared
	// run; like Tracer and Registry, setting it runs the points in-line.
	Flight *telemetry.FlightRecorder
}

// Validate checks the sweep grid.
func (c SweepConfig) Validate() error {
	if len(c.TenantCounts) == 0 || len(c.MixSpecs) == 0 || len(c.Seeds) == 0 {
		return fmt.Errorf("mtsim: sweep needs tenant counts, mix specs, and seeds")
	}
	for _, n := range c.TenantCounts {
		if n <= 0 {
			return fmt.Errorf("mtsim: sweep tenant count %d", n)
		}
	}
	for _, spec := range c.MixSpecs {
		for _, mix := range strings.Split(spec, "+") {
			ts := TenantSpec{Mix: mix, Ops: c.Ops, RegionBytes: c.RegionBytes, Think: c.Think}
			if err := ts.Validate(); err != nil {
				return fmt.Errorf("mix spec %q: %w", spec, err)
			}
		}
	}
	return nil
}

// SweepPoint is one grid point and its result.
type SweepPoint struct {
	TenantCount int
	MixSpec     string
	Seed        uint64
	Res         *Result
}

// SweepResult holds all points in grid order.
type SweepResult struct {
	Points []SweepPoint
}

// pointConfig builds the Run configuration for one grid point.
func (c SweepConfig) pointConfig(tenants int, mixSpec string, seed uint64) Config {
	mixes := strings.Split(mixSpec, "+")
	specs := make([]TenantSpec, tenants)
	for i := range specs {
		specs[i] = TenantSpec{
			Mix:         mixes[i%len(mixes)],
			Ops:         c.Ops,
			RegionBytes: c.RegionBytes,
			Think:       c.Think,
			Seed:        uint64(i),
		}
	}
	return Config{
		Device:         c.Device,
		Tenants:        specs,
		Seed:           seed,
		DisableArbiter: c.DisableArbiter,
		Tracer:         c.Tracer,
		Registry:       c.Registry,
		Attrib:         c.Attrib,
		SLO:            c.SLO,
		Flight:         c.Flight,
	}
}

// Sweep runs the full grid on sim.Workers goroutines — each point is a
// private simulator, so the only shared state is the results slice, written
// at distinct indices and merged in index order.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var points []SweepPoint
	for _, n := range cfg.TenantCounts {
		for _, spec := range cfg.MixSpecs {
			for _, seed := range cfg.Seeds {
				points = append(points, SweepPoint{TenantCount: n, MixSpec: spec, Seed: seed})
			}
		}
	}

	workers := sim.Workers(cfg.Tracer != nil || cfg.Registry != nil || cfg.Flight != nil)
	err := sim.ForEach(len(points), workers, func(i int) error {
		p := &points[i]
		var err error
		if p.Res, err = Run(cfg.pointConfig(p.TenantCount, p.MixSpec, p.Seed)); err != nil {
			return fmt.Errorf("mtsim: point %d (tenants=%d mix=%s seed=%d): %w", i, p.TenantCount, p.MixSpec, p.Seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Points: points}, nil
}

// Write renders every point in grid order. Output is byte-identical across
// runs and across GOMAXPROCS settings.
func (r *SweepResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "consolidation sweep points=%d\n", len(r.Points)); err != nil {
		return err
	}
	for i := range r.Points {
		p := &r.Points[i]
		if _, err := fmt.Fprintf(w, "point tenants=%d mix=%s seed=%d\n", p.TenantCount, p.MixSpec, p.Seed); err != nil {
			return err
		}
		if err := p.Res.Write(w); err != nil {
			return err
		}
	}
	return nil
}
