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
// One driver (sweep and crashPoint) runs every workload: a workload supplies
// only how to open it, its operation step, its durability checks and its
// resume rule, and the driver owns recovery and the hierarchy-wide checks.
//
// Everything runs on virtual time with seeded RNGs, so a (seed, plan) pair
// produces a byte-identical report — two sweeps can be diffed.
package crashsweep

import (
	"errors"
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
	for _, name := range cfg.Workloads {
		points, err := sweep(cfg, cfg.workload(name))
		if err != nil {
			return nil, fmt.Errorf("crashsweep: %s: %w", name, err)
		}
		rep.Points = append(rep.Points, points...)
	}
	for _, p := range rep.Points {
		rep.Violations += len(p.Violations)
	}
	return rep, nil
}

// resumeOps bounds how far each recovered run continues to prove the
// hierarchy usable after recovery: fsim operations, or txdb rounds.
const resumeOps = 8

// A workload is one crash-swept client of the hierarchy. The driver runs its
// steps 0..steps-1 once fault-free to learn the virtual-time window, then
// once per crash point.
type workload struct {
	name  string
	steps int
	// open builds the workload on a fresh hierarchy. arm attaches a crash
	// run's fault engine, recovery sabotage and flight recorder; open calls
	// it at the point from which the workload's device traffic may fault.
	open func(arm func(*core.FlatFlash)) (*core.FlatFlash, client, error)
}

// client is one opened workload.
type client interface {
	// step runs operation i of the deterministic operation stream.
	step(i int) error
	// check runs the workload's durability checks on the recovered
	// hierarchy and returns the violations it found.
	check(ff *core.FlatFlash) ([]string, error)
	// resume names the steps [from, from+n) that continue the workload on
	// the recovered hierarchy, given that steps [0, done) completed before
	// the crash.
	resume(done int) (from, n int)
}

// workload returns the named workload's driver hooks.
func (c Config) workload(name string) workload {
	if name == WorkloadTxdb {
		return workload{name: name, steps: c.TxPerThread * c.Threads, open: c.openTxdb}
	}
	return workload{name: name, steps: c.FsimOps, open: c.openFsim}
}

// sweep runs w's golden (fault-free) pass to learn its virtual-time window,
// then replays it Points times with a power loss at each sampled instant.
// The crash run is deterministic and identical to the golden run right up to
// the crash, so every sampled time lands inside the workload.
func sweep(cfg Config, w workload) ([]PointResult, error) {
	ff, c, err := w.open(func(*core.FlatFlash) {})
	if err != nil {
		return nil, err
	}
	workStart := ff.Now()
	for i := 0; i < w.steps; i++ {
		if err := c.step(i); err != nil {
			return nil, fmt.Errorf("golden run step %d: %w", i, err)
		}
	}
	workEnd := ff.Now()

	out := make([]PointResult, 0, cfg.Points)
	for i, at := range sampleTimes(workStart, workEnd, cfg.Points) {
		p, err := crashPoint(cfg, w, i, at)
		if err != nil {
			return nil, fmt.Errorf("point %d (crash at %v): %w", i, at, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// crashPoint runs w with a power loss scheduled at at, recovers, and checks
// the workload's durability promises plus the hierarchy-wide invariants:
// monotonic wear, L2P/PTE agreement, a clean recovery and, in demand-paged
// mode, GTD recovery agreeing with the full OOB scan.
func crashPoint(cfg Config, w workload, idx int, at sim.Time) (PointResult, error) {
	res := PointResult{Workload: w.name, Index: idx, CrashAt: at}
	eng, err := fault.NewEngine(cfg.plan(at), cfg.Seed)
	if err != nil {
		return res, err
	}
	ff, c, err := w.open(func(ff *core.FlatFlash) {
		ff.SetFaults(eng)
		ff.BreakRecoveryForTesting(cfg.BreakRecovery)
		ff.SetFlightRecorder(cfg.Flight)
	})
	if err != nil {
		return res, err
	}

	done := 0
	for ; done < w.steps; done++ {
		if err := c.step(done); err != nil {
			if errors.Is(err, core.ErrCrashed) {
				res.Fired = true
				break
			}
			return res, err
		}
	}
	if res.Fired {
		progs0 := ff.Counters().Get("flash_programs")
		erases0 := ff.Counters().Get("flash_erases")
		ff.Recover()

		violations, err := c.check(ff)
		if err != nil {
			return res, err
		}
		res.Violations = append(res.Violations, violations...)
		// Monotonic wear: recovery must never rewind lifetime counters.
		if p := ff.Counters().Get("flash_programs"); p < progs0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_programs went backwards across recovery: %d -> %d", progs0, p))
		}
		if e := ff.Counters().Get("flash_erases"); e < erases0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("flash_erases went backwards across recovery: %d -> %d", erases0, e))
		}
		// Post-recovery usability: the workload continues on the recovered
		// hierarchy (a later ExtraPlan crash may legitimately interrupt it).
		from, n := c.resume(done)
		for i := from; i < from+n; i++ {
			if err := c.step(i); err != nil {
				if errors.Is(err, core.ErrCrashed) {
					ff.Recover()
					break
				}
				return res, err
			}
		}
	}
	if err := ff.CheckInvariants(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("invariants: %v", err))
	}
	if v := ff.Counters().Get("recovery_invariant_violations"); v > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("recovery reported %d internal invariant violations", v))
	}
	noteMapRecovery(ff, &res)
	res.Faults = eng.Stats()
	return res, nil
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

// errCheckFailed is a sentinel readBack uses to separate "check failed"
// (a violation) from hierarchy errors (a harness failure).
var errCheckFailed = errors.New("crashsweep: check failed")

// readBack runs a validation read, transparently recovering once if an
// ExtraPlan fault crashes the hierarchy mid-check. Returns (false, nil) when
// the check itself failed, (false, err) on a real hierarchy error.
func readBack(ff *core.FlatFlash, f func() error) (bool, error) {
	err := f()
	if errors.Is(err, core.ErrCrashed) {
		ff.Recover()
		err = f()
	}
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, errCheckFailed):
		return false, nil
	default:
		return false, err
	}
}
