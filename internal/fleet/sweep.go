package fleet

import (
	"fmt"
	"io"

	"flatflash/internal/sim"
)

// SweepPoint is one grid point and its result.
type SweepPoint struct {
	Shards int
	Rate   float64
	Seed   uint64
	Res    *Result
}

// SweepResult holds all points in grid order.
type SweepResult struct {
	Points []SweepPoint
}

// Sweep fans fleet runs out over the grid shards × rates × seeds, in that
// nested order. Each point runs a copy of base with Shards, Arrivals.Rate
// and Arrivals.Seed set from the grid; every other field applies to every
// point.
//
// Every point is a private simulator, so points run on sim.Workers
// goroutines; the only shared state is the results slice, written at
// distinct indices and merged in index order, which keeps the report
// byte-identical whatever GOMAXPROCS is — the same contract mtsim.Sweep
// keeps. Every point shares base.Server.Flight, so setting it runs the
// points in-line, in grid order.
func Sweep(base Config, shards []int, rates []float64, seeds []uint64) (*SweepResult, error) {
	if len(shards) == 0 || len(rates) == 0 || len(seeds) == 0 {
		return nil, fmt.Errorf("fleet: sweep needs shard counts, rates, and seeds")
	}
	var (
		points []SweepPoint
		cfgs   []Config
	)
	for _, n := range shards {
		for _, rate := range rates {
			for _, seed := range seeds {
				cfg := base
				cfg.Shards = n
				cfg.Arrivals.Rate = rate
				cfg.Arrivals.Seed = seed
				if err := cfg.Validate(); err != nil {
					return nil, fmt.Errorf("fleet: sweep point shards=%d rate=%v seed=%d: %w", n, rate, seed, err)
				}
				points = append(points, SweepPoint{Shards: n, Rate: rate, Seed: seed})
				cfgs = append(cfgs, cfg)
			}
		}
	}
	err := sim.ForEach(len(points), sim.Workers(base.Server.Flight != nil), func(i int) error {
		p := &points[i]
		var err error
		if p.Res, err = Run(cfgs[i]); err != nil {
			return fmt.Errorf("fleet: point %d (shards=%d rate=%v seed=%d): %w", i, p.Shards, p.Rate, p.Seed, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{Points: points}, nil
}

// Write renders every point in grid order; output is byte-identical across
// runs and across GOMAXPROCS settings.
func (r *SweepResult) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "fleet sweep points=%d\n", len(r.Points)); err != nil {
		return err
	}
	for i := range r.Points {
		p := &r.Points[i]
		if _, err := fmt.Fprintf(w, "point shards=%d rate=%.1f seed=%d\n", p.Shards, p.Rate, p.Seed); err != nil {
			return err
		}
		if err := p.Res.Write(w); err != nil {
			return err
		}
	}
	return nil
}
