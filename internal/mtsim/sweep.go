package mtsim

import (
	"fmt"
	"io"
	"strings"

	"flatflash/internal/sim"
)

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

// Sweep fans consolidation runs out over the grid tenants × mixSpecs × seeds,
// in that nested order. Each point runs a copy of base with Seed set from the
// grid and one copy of tenant per tenant: tenant i runs the i-th mix of its
// point's "+"-separated mix spec, cycled, with Seed i. Base's Tenants are
// ignored.
//
// Every point is a private simulator, so points run on sim.Workers
// goroutines; the only shared state is the results slice, written at
// distinct indices and merged in index order, which keeps the report
// byte-identical whatever GOMAXPROCS is. Base's Tracer, Registry and Flight
// are shared by every point, so attaching any of them runs the points
// in-line, in grid order; an attribution engine is private to its point.
func Sweep(base Config, tenant TenantSpec, tenants []int, mixSpecs []string, seeds []uint64) (*SweepResult, error) {
	if len(tenants) == 0 || len(mixSpecs) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("mtsim: sweep needs tenant counts, mix specs, and seeds")
	}
	// Every mix of a spec is checked, also one that a small tenant count
	// leaves unused.
	for _, spec := range mixSpecs {
		for _, mix := range strings.Split(spec, "+") {
			ts := tenant
			ts.Mix = mix
			if err := ts.Validate(); err != nil {
				return nil, fmt.Errorf("mix spec %q: %w", spec, err)
			}
		}
	}
	var (
		points []SweepPoint
		cfgs   []Config
	)
	for _, n := range tenants {
		for _, spec := range mixSpecs {
			mixes := strings.Split(spec, "+")
			for _, seed := range seeds {
				cfg := base
				cfg.Seed = seed
				cfg.Tenants = nil
				for i := 0; i < n; i++ {
					ts := tenant
					ts.Mix = mixes[i%len(mixes)]
					ts.Seed = uint64(i)
					cfg.Tenants = append(cfg.Tenants, ts)
				}
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("mtsim: sweep point tenants=%d mix=%s seed=%d: %w", n, spec, seed, err)
				}
				points = append(points, SweepPoint{TenantCount: n, MixSpec: spec, Seed: seed})
				cfgs = append(cfgs, cfg)
			}
		}
	}

	workers := sim.Workers(base.Tracer != nil || base.Registry != nil || base.Flight != nil)
	err := sim.ForEach(len(points), workers, func(i int) error {
		p := &points[i]
		var err error
		if p.Res, err = Run(cfgs[i]); err != nil {
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
