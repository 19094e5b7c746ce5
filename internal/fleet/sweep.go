package fleet

import (
	"fmt"
	"io"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

// SweepConfig fans fleet runs out over (shard count × arrival rate × seed).
// Each point is an independent fleet instance, so points run in parallel on
// sim.Workers goroutines; results merge in point-index order, keeping the
// report byte-identical whatever GOMAXPROCS is — the same contract
// mtsim.Sweep keeps.
type SweepConfig struct {
	// Device configures every shard of every point (nil → mtsim default).
	Device *core.Config

	// ShardCounts, Rates, and Seeds define the grid in nested order: for
	// each shard count, for each rate, for each seed.
	ShardCounts []int
	Rates       []float64
	Seeds       []uint64

	// Arrivals is the traffic template; each point overrides its Rate and
	// Seed from the grid.
	Arrivals workload.ArrivalConfig

	// Server is every shard's queueing/admission policy. Every point shares
	// its flight recorder, so setting Server.Flight runs the points in-line,
	// in grid order.
	Server mtsim.ServerOptions

	// VNodes, RingSeed, and the Migrate knobs apply to every point.
	VNodes       int
	RingSeed     uint64
	MigrateEpoch sim.Duration
	MigratePages int
	MigrateLat   sim.Duration
}

// Validate checks the sweep grid.
func (c SweepConfig) Validate() error {
	if len(c.ShardCounts) == 0 || len(c.Rates) == 0 || len(c.Seeds) == 0 {
		return fmt.Errorf("fleet: sweep needs shard counts, rates, and seeds")
	}
	for _, n := range c.ShardCounts {
		if n <= 0 {
			return fmt.Errorf("fleet: sweep shard count %d", n)
		}
	}
	for _, rate := range c.Rates {
		point := c.pointConfig(c.ShardCounts[0], rate, c.Seeds[0])
		if err := point.Validate(); err != nil {
			return fmt.Errorf("fleet: rate %v: %w", rate, err)
		}
	}
	return nil
}

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

// pointConfig builds the Run configuration for one grid point.
func (c SweepConfig) pointConfig(shards int, rate float64, seed uint64) Config {
	arr := c.Arrivals
	arr.Rate = rate
	arr.Seed = seed
	return Config{
		Shards:       shards,
		VNodes:       c.VNodes,
		RingSeed:     c.RingSeed,
		Device:       c.Device,
		Arrivals:     arr,
		Server:       c.Server,
		MigrateEpoch: c.MigrateEpoch,
		MigratePages: c.MigratePages,
		MigrateLat:   c.MigrateLat,
	}
}

// Sweep runs the full grid on sim.Workers goroutines. Each point is a
// private simulator; the only shared state is the results slice, written at
// distinct indices and merged in index order.
func Sweep(cfg SweepConfig) (*SweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var points []SweepPoint
	for _, n := range cfg.ShardCounts {
		for _, rate := range cfg.Rates {
			for _, seed := range cfg.Seeds {
				points = append(points, SweepPoint{Shards: n, Rate: rate, Seed: seed})
			}
		}
	}
	err := sim.ForEach(len(points), sim.Workers(cfg.Server.Flight != nil), func(i int) error {
		p := &points[i]
		var err error
		if p.Res, err = Run(cfg.pointConfig(p.Shards, p.Rate, p.Seed)); err != nil {
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
