// Package crashsweep is the crash-consistency sweep harness: it replays a
// workload many times, each time with a power loss injected at a different,
// evenly-sampled virtual time, runs recovery, and checks declared invariants
// against what the workload had committed before the crash.
//
// The sweep turns the §3.5 persistence claims into checkable properties:
//
//   - Committed-data durability: every fsim metadata transaction and txdb
//     commit record that completed before the crash must be readable after
//     recovery (the battery-backed SSD-Cache plus flash form the
//     persistence domain).
//   - No phantom commits: txdb recovery may find at most one record beyond
//     each worker's acknowledged commit (a record can become durable just
//     before its Persist returns), never more.
//   - No torn cache lines: fsim's 8-byte journal-record headers read back
//     exactly — a posted MMIO cache-line write is atomic.
//   - L2P/PTE agreement: after the FTL rebuilds its mapping, the merged
//     page table, promotion bookkeeping, and FTL agree (CheckInvariants).
//   - Monotonic wear: erase/program counters never move backwards across
//     crash and recovery.
//   - Post-recovery usability: the workload can continue on the recovered
//     hierarchy.
//
// Everything runs on virtual time with seeded RNGs, so a (seed, plan) pair
// produces a byte-identical report — two sweeps can be diffed.
package crashsweep

import (
	"fmt"
	"io"

	"flatflash/internal/core"
	"flatflash/internal/fault"
	"flatflash/internal/fsim"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Workload names accepted in Config.Workloads.
const (
	WorkloadFsim = "fsim"
	WorkloadTxdb = "txdb"
)

// Config parameterizes a sweep.
type Config struct {
	Seed      uint64
	Points    int      // crash points per workload
	Workloads []string // subset of {fsim, txdb}; empty = both

	FsimOps     int // metadata ops per fsim run (default 120, must stay < fsim.JournalSlots)
	TxPerThread int // transactions per txdb worker (default 40)
	Threads     int // txdb workers (default 2)

	// ExtraPlan layers additional faults (NAND failures, MMIO drops/tears,
	// battery drain) onto every crash run. Faults that breach the
	// persistence domain are expected to surface as violations — that is
	// the point.
	ExtraPlan fault.Plan

	// BreakRecovery enables the test-only sabotaged Recover; the sweep must
	// then report violations (used to prove the harness catches real bugs).
	BreakRecovery bool

	// Flight attaches a deterministic flight recorder to every crash run's
	// hierarchy: injected faults and recovery invariant failures trigger
	// pre-anomaly span dumps. May be nil.
	Flight *telemetry.FlightRecorder

	// MapCachePages > 0 runs every crash point with the FTL's demand-paged
	// translation map (that many translation pages resident), exercising the
	// GTD recovery path instead of the full OOB scan.
	MapCachePages int
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Points <= 0 {
		out.Points = 50
	}
	if len(out.Workloads) == 0 {
		out.Workloads = []string{WorkloadFsim, WorkloadTxdb}
	}
	if out.FsimOps <= 0 {
		out.FsimOps = 120
	}
	if out.TxPerThread <= 0 {
		out.TxPerThread = 40
	}
	if out.Threads <= 0 {
		out.Threads = 2
	}
	return out
}

// Validate checks the configuration once zero fields take their defaults.
func (c Config) Validate() error {
	c = c.withDefaults()
	if int64(c.FsimOps) >= fsim.JournalSlots() {
		return fmt.Errorf("crashsweep: FsimOps %d must stay below %d journal slots", c.FsimOps, fsim.JournalSlots())
	}
	for _, w := range c.Workloads {
		if w != WorkloadFsim && w != WorkloadTxdb {
			return fmt.Errorf("crashsweep: unknown workload %q", w)
		}
	}
	return c.ExtraPlan.Validate()
}

// hierarchy builds a fresh FlatFlash for one run: a small battery-backed
// device suitable for sweeps.
func (c Config) hierarchy() (*core.FlatFlash, error) {
	// 16 MB SSD: fsim alone maps a 2 MB journal plus 2 MB of data slots.
	cfg := core.DefaultConfig(16<<20, 256<<10)
	cfg.SSDCacheFraction = 0.01 // a few dozen cache pages; still battery-backed
	cfg.MapCachePages = c.MapCachePages
	cfg.MapPipeline = c.MapCachePages > 0
	return core.NewFlatFlash(cfg)
}

// PointResult is one crash point's outcome.
type PointResult struct {
	Workload   string
	Index      int
	CrashAt    sim.Time
	Fired      bool // the scheduled power loss actually hit the run
	Faults     fault.Stats
	Violations []string

	// Demand-paged map recovery outcomes (zero in the default mode).
	GTDPartial  int64 // recoveries that reloaded the map via the GTD
	GTDFallback int64 // recoveries that fell back to the full OOB scan
}

// Report is a full sweep's outcome.
type Report struct {
	Seed       uint64
	Points     []PointResult
	Violations int // total across points
}

// Write renders the report deterministically (byte-identical for identical
// seed and plan).
func (r *Report) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "crashsweep seed=%d points=%d violations=%d\n",
		r.Seed, len(r.Points), r.Violations); err != nil {
		return err
	}
	for _, p := range r.Points {
		// The gtd field appears only when the demand-paged map ran, keeping
		// default-mode reports byte-identical to pre-mapcache output.
		gtd := ""
		if p.GTDPartial > 0 || p.GTDFallback > 0 {
			gtd = fmt.Sprintf(" gtd_partial=%d gtd_fallback=%d", p.GTDPartial, p.GTDFallback)
		}
		if _, err := fmt.Fprintf(w, "%s point=%d crash_at=%dns fired=%v faults=%d violations=%d%s\n",
			p.Workload, p.Index, int64(p.CrashAt), p.Fired, p.Faults.Total(), len(p.Violations), gtd); err != nil {
			return err
		}
		for _, v := range p.Violations {
			if _, err := fmt.Fprintf(w, "  violation: %s\n", v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the sweep.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rep := &Report{Seed: cfg.Seed}
	for _, w := range cfg.Workloads {
		var (
			points []PointResult
			err    error
		)
		switch w {
		case WorkloadFsim:
			points, err = sweepFsim(cfg)
		case WorkloadTxdb:
			points, err = sweepTxdb(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("crashsweep: %s: %w", w, err)
		}
		rep.Points = append(rep.Points, points...)
	}
	for _, p := range rep.Points {
		rep.Violations += len(p.Violations)
	}
	return rep, nil
}

// sampleTimes spreads n crash times evenly across the open interval
// (start, end).
func sampleTimes(start, end sim.Time, n int) []sim.Time {
	span := end.Sub(start)
	out := make([]sim.Time, n)
	for i := range out {
		out[i] = start.Add(span * sim.Duration(i+1) / sim.Duration(n+1))
	}
	return out
}

// instrument attaches the configured flight recorder (if any) to one crash
// run's hierarchy: the recorder's ring records the run's spans, fault events
// (crash, NAND failures, MMIO drops) self-trigger anomaly snapshots, and
// recovery invariant failures dump the pre-anomaly window.
func (c Config) instrument(ff *core.FlatFlash) {
	if c.Flight == nil {
		return
	}
	ff.SetFlightRecorder(c.Flight)
}

// noteMapRecovery folds the demand-paged map's recovery outcomes into a
// point result (all-zero counters in the default all-in-memory mode leave it
// untouched) and flags GTD-vs-full-scan equivalence mismatches as
// violations: the partial recovery claimed a map the OOB ground truth
// contradicts.
func noteMapRecovery(ff *core.FlatFlash, res *PointResult) {
	c := ff.Counters()
	res.GTDPartial = c.Get("recovery_gtd_partial")
	res.GTDFallback = c.Get("recovery_gtd_fallbacks")
	if m := c.Get("recovery_gtd_equiv_mismatches"); m > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("GTD recovery disagreed with the full OOB scan %d time(s)", m))
	}
}

// plan builds the fault plan for one crash run.
func (c Config) plan(crashAt sim.Time) fault.Plan {
	p := fault.Plan{{Kind: fault.Crash, At: crashAt, N: 1}}
	return append(p, c.ExtraPlan...)
}
