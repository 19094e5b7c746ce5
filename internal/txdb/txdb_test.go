package txdb

import (
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

func newFF(t *testing.T) core.Hierarchy {
	t.Helper()
	h, err := core.NewFlatFlash(core.DefaultConfig(16<<20, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func newUM(t *testing.T) core.Hierarchy {
	t.Helper()
	h, err := core.NewUnifiedMMap(core.DefaultConfig(16<<20, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNames(t *testing.T) {
	if TPCC.String() != "TPCC" || TPCB.String() != "TPCB" || TATP.String() != "TATP" {
		t.Fatal("workload names")
	}
	if Centralized.String() != "Centralized" || PerTransaction.String() != "PerTransaction" {
		t.Fatal("mode names")
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Threads: 0, TxPerThread: 1, DBBytes: 1 << 20},
		{Threads: 1, TxPerThread: 0, DBBytes: 1 << 20},
		{Threads: 1, TxPerThread: 1, DBBytes: 16},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := Run(newFF(t), Config{}); err == nil {
		t.Error("Run accepted invalid config")
	}
}

func TestProfilesDiffer(t *testing.T) {
	if profileOf(TPCB).writes <= profileOf(TATP).writes {
		t.Error("TPCB must be more update-heavy than TATP")
	}
	if profileOf(TATP).readOnlyFrac < 0.5 {
		t.Error("TATP must be read-mostly")
	}
	if profileOf(TPCC).logBytes < profileOf(TATP).logBytes {
		t.Error("TPCC log records should be largest")
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(newFF(t), Config{
		Workload: TPCB, LogMode: PerTransaction,
		Threads: 4, TxPerThread: 50, DBBytes: 4 << 20, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTx != 200 || res.Throughput <= 0 || res.Elapsed <= 0 {
		t.Fatalf("res = %+v", res)
	}
}

// Per-transaction logging must scale with threads where centralized
// logging plateaus (Figure 7 / Figure 14's premise).
func TestPerTxLoggingScalesBetterThanCentralized(t *testing.T) {
	tput := func(mode LogMode, threads int) float64 {
		res, err := Run(newFF(t), Config{
			Workload: TPCB, LogMode: mode,
			Threads: threads, TxPerThread: 60, DBBytes: 4 << 20, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	c4, c16 := tput(Centralized, 4), tput(Centralized, 16)
	p4, p16 := tput(PerTransaction, 4), tput(PerTransaction, 16)
	scaleC := c16 / c4
	scaleP := p16 / p4
	if scaleP <= scaleC {
		t.Errorf("per-tx scaling %.2fx not better than centralized %.2fx", scaleP, scaleC)
	}
	if p16 <= c16 {
		t.Errorf("per-tx at 16 threads (%.0f tps) not above centralized (%.0f tps)", p16, c16)
	}
}

// With per-transaction logging, FlatFlash's byte-granular durable log
// writes beat the baselines' page-granularity ones (Figure 14a-c).
func TestFlatFlashBeatsUnifiedMMapOnTPCB(t *testing.T) {
	cfg := Config{
		Workload: TPCB, LogMode: PerTransaction,
		Threads: 16, TxPerThread: 40, DBBytes: 4 << 20, Seed: 3,
	}
	rff, err := Run(newFF(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rum, err := Run(newUM(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rff.Throughput <= rum.Throughput {
		t.Errorf("FlatFlash %.0f tps not above UnifiedMMap %.0f tps", rff.Throughput, rum.Throughput)
	}
}

// The calibrated log cost must reflect the persistence design: FlatFlash's
// byte-granular log persist is cheaper than the baseline's page sync.
func TestCalibratedLogCosts(t *testing.T) {
	dbFF, err := Open(newFF(t), Config{Workload: TPCB, Threads: 2, TxPerThread: 1, DBBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	dbUM, err := Open(newUM(t), Config{Workload: TPCB, Threads: 2, TxPerThread: 1, DBBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	latFF, svcFF := dbFF.LogCosts()
	latUM, svcUM := dbUM.LogCosts()
	if latFF >= latUM {
		t.Errorf("FlatFlash log latency %v not below baseline %v", latFF, latUM)
	}
	if svcFF >= svcUM {
		t.Errorf("FlatFlash log occupancy %v not below baseline %v", svcFF, svcUM)
	}
}

// Lower device latency widens FlatFlash's advantage (Figure 14d's trend is
// about the baselines: when flash gets faster, paging overheads dominate).
func TestDeterministicRuns(t *testing.T) {
	cfg := Config{Workload: TATP, LogMode: PerTransaction, Threads: 8, TxPerThread: 30, DBBytes: 2 << 20, Seed: 9}
	a, err := Run(newFF(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(newFF(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Elapsed != b.Elapsed {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

// The B+tree-indexed access path must behave identically in outcome (all
// transactions complete) with plausible slowdown from index traversals.
func TestIndexedAccessPath(t *testing.T) {
	cfg := Config{
		Workload: TPCB, LogMode: PerTransaction,
		Threads: 4, TxPerThread: 30, DBBytes: 2 << 20, Seed: 4, UseIndex: true,
	}
	res, err := Run(newFF(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTx != 120 || res.Throughput <= 0 {
		t.Fatalf("res = %+v", res)
	}
	// Direct addressing still works from the same config.
	cfg.UseIndex = false
	direct, err := Run(newFF(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if direct.TotalTx != 120 || direct.Throughput <= 0 {
		t.Fatalf("direct res = %+v", direct)
	}
}

// A Stepper driven round-robin through Run's warm-up and measured rounds
// must leave an identical hierarchy in an identical state: same counters,
// same clock, on both a FlatFlash and a paging baseline.
func TestStepperMatchesRun(t *testing.T) {
	for _, newH := range []func(*testing.T) core.Hierarchy{newFF, newUM} {
		cfg := Config{Workload: TPCC, LogMode: Centralized, Threads: 4, TxPerThread: 40, DBBytes: 2 << 20, Seed: 11}
		hRun := newH(t)
		if _, err := Run(hRun, cfg); err != nil {
			t.Fatal(err)
		}
		hStep := newH(t)
		st, err := NewStepper(hStep, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rounds := cfg.TxPerThread/4 + 1 + cfg.TxPerThread // Run's warm + measured
		for r := 0; r < rounds; r++ {
			for w := 0; w < cfg.Threads; w++ {
				if err := st.Step(w); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := hStep.Counters().String(), hRun.Counters().String(); got != want {
			t.Errorf("%s: Stepper counters diverge from Run:\nstep:\n%s\nrun:\n%s", hRun.Name(), got, want)
		}
		if got, want := hStep.Now(), hRun.Now(); got != want {
			t.Errorf("%s: Stepper clock %v, Run clock %v", hRun.Name(), got, want)
		}
	}
}

// ARIES-style analysis: after a crash, every committed transaction's log
// record is found; per-worker sequence numbers match what ran.
func TestLogRecoveryAfterCrash(t *testing.T) {
	h := newFF(t)
	cfg := Config{
		Workload: TPCB, LogMode: PerTransaction, // TPCB: no read-only tx
		Threads: 4, TxPerThread: 20, DBBytes: 1 << 20, Seed: 8, FunctionalLog: true,
	}
	db, err := Open(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(1)
	gen := workload.NewZipf(rng, db.records, 0.9)
	var now sim.Time
	const commits = 25
	for i := 0; i < commits; i++ {
		now, err = db.runTx(now, rng, gen, i%cfg.Threads, i)
		if err != nil {
			t.Fatal(err)
		}
	}
	h.Crash()
	h.Recover()
	seqs, err := db.RecoverCommitted()
	if err != nil {
		t.Fatal(err)
	}
	var total uint64
	for _, s := range seqs {
		total += s
	}
	if total != commits {
		t.Fatalf("recovered %d commits, want %d (per worker: %v)", total, commits, seqs)
	}
}

// Recovery on a baseline finds the block-synced records too.
func TestLogRecoveryOnBaseline(t *testing.T) {
	h := newUM(t)
	cfg := Config{Workload: TATP, LogMode: PerTransaction, Threads: 2, TxPerThread: 10, DBBytes: 1 << 20, Seed: 8, FunctionalLog: true}
	db, err := Open(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// TATP is 80% read-only; force commits by calling the log directly.
	for i := 0; i < 6; i++ {
		if err := db.appendLogRecord(i%2, db.prof.logBytes); err != nil {
			t.Fatal(err)
		}
	}
	h.Crash()
	h.Recover()
	seqs, err := db.RecoverCommitted()
	if err != nil {
		t.Fatal(err)
	}
	if seqs[0]+seqs[1] != 6 {
		t.Fatalf("recovered %v", seqs)
	}
}
