package fleet

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// withGOMAXPROCS runs fn with the scheduler pinned to procs cores and
// restores the previous setting afterwards. GOMAXPROCS is the fleet's
// worker count (sim.Workers): at 1 the coordinator drains every shard
// in-line, above it min(Shards, GOMAXPROCS) goroutines drain behind it.
func withGOMAXPROCS(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// The pipelined drain must reproduce the in-line one byte for byte,
// whatever GOMAXPROCS is, on both a migration-free fleet and one whose
// epoch boundaries cut the pipeline with barriers.
func TestParallelMatchesSequential(t *testing.T) {
	plain := fleetConfig(4, 500000)
	plain.Arrivals.Ops = 4000
	migr := migrationConfig()
	migr.Arrivals.Ops = 8000
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain-4shard", plain},
		{"migration-2shard", migr},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var seq string
			withGOMAXPROCS(1, func() { seq = fleetReport(t, tc.cfg) })
			if tc.name == "migration-2shard" {
				res, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Migrations == 0 {
					t.Fatal("migration case exercises no migrations")
				}
			}
			for _, procs := range []int{2, 4} {
				withGOMAXPROCS(procs, func() {
					if got := fleetReport(t, tc.cfg); got != seq {
						t.Errorf("GOMAXPROCS=%d diverges from the in-line drain:\n--- seq ---\n%s--- par ---\n%s",
							procs, seq, got)
					}
				})
			}
		})
	}
}

// Single-shard fleets and fleets with a shared flight recorder drain their
// shards in-line at any GOMAXPROCS, one arrival at a time for the recorder,
// and must produce the same report — and, for the recorder, the same
// trigger order, so the flight dump matches byte for byte.
func TestParallelFallsBackToSequential(t *testing.T) {
	single := fleetConfig(1, 200000)
	single.Arrivals.Ops = 2000
	var want, got string
	withGOMAXPROCS(1, func() { want = fleetReport(t, single) })
	withGOMAXPROCS(4, func() { got = fleetReport(t, single) })
	if got != want {
		t.Fatalf("single-shard run diverges at GOMAXPROCS=4:\n--- 1 ---\n%s--- 4 ---\n%s", want, got)
	}

	flightRun := func(procs int) (report, dump string) {
		cfg := fleetConfig(2, 4e6)
		cfg.Arrivals.Ops = 2000
		// One snapshot slot per arrival keeps every trigger, so the dump
		// records the whole trigger order.
		rec := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, cfg.Arrivals.Ops)
		cfg.Server.Flight = rec
		withGOMAXPROCS(procs, func() { report = fleetReport(t, cfg) })
		snaps := rec.Snapshots()
		for i := 1; i < len(snaps); i++ {
			if snaps[i].At < snaps[i-1].At {
				t.Fatalf("GOMAXPROCS=%d: trigger %d at %d follows one at %d; triggers must fire in arrival order",
					procs, i, snaps[i].At, snaps[i-1].At)
			}
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		return report, buf.String()
	}
	seqReport, seqDump := flightRun(1)
	if !strings.Contains(seqDump, `"anomaly":"shed_onset"`) {
		t.Fatalf("overloaded flight run captured no shed_onset snapshot:\n%s", seqDump)
	}
	parReport, parDump := flightRun(4)
	if parReport != seqReport {
		t.Fatalf("flight-recorder report diverges at GOMAXPROCS=4:\n--- 1 ---\n%s--- 4 ---\n%s", seqReport, parReport)
	}
	if parDump != seqDump {
		t.Fatalf("flight dump diverges at GOMAXPROCS=4:\n--- 1 ---\n%s--- 4 ---\n%s", seqDump, parDump)
	}
}

// Stress: randomized fleet shapes — shard counts, rates, epochs, seeds —
// must stay byte-identical between the in-line drain (GOMAXPROCS=1) and
// the pipelined one. Run under -race this doubles as a data-race hunt over
// the shard drains.
func TestParallelStressRandomShapes(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := sim.NewRNG(97)
	for trial := 0; trial < trials; trial++ {
		cfg := randomShape(rng)
		procs := 2 + int(rng.Uint64n(3))
		var seq, got string
		withGOMAXPROCS(1, func() { seq = fleetReport(t, cfg) })
		withGOMAXPROCS(procs, func() { got = fleetReport(t, cfg) })
		if got != seq {
			t.Fatalf("trial %d (shards=%d rate=%.0f epoch=%v GOMAXPROCS=%d): pipelined drain diverges:\n--- seq ---\n%s--- par ---\n%s",
				trial, cfg.Shards, cfg.Arrivals.Rate, cfg.MigrateEpoch, procs, seq, got)
		}
	}
}

// A shard whose Arrive fails serves nothing more, the other shards serve on
// to the barrier, and the barrier returns the failure of the lowest-index
// failed shard — not the first in arrival order — at every GOMAXPROCS.
// There are min(Shards, GOMAXPROCS) drain goroutines, none for one, and
// stop leaves none behind. The arrival generator only emits offsets inside
// the region, so no Run fails this way; the test hands the pipeline an
// arrival past the region's end directly.
func TestPipelineFailureInShardOrder(t *testing.T) {
	cfg := fleetConfig(4, 500000)
	pageSize := uint64(cfg.Device.PageSize)
	at := func(ns int64, off uint64) workload.Arrival {
		return workload.Arrival{At: sim.Time(ns), Op: workload.AccessOp{Off: off, Len: workload.RecordBytes}}
	}
	outside := cfg.Arrivals.RegionBytes + 64*pageSize
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(procs, func() {
			before := runtime.NumGoroutine()
			servers := make([]*mtsim.Server, cfg.Shards)
			for i := range servers {
				var err error
				if servers[i], err = mtsim.NewServer(*cfg.Device, cfg.Arrivals.MixSpec, cfg.Arrivals.RegionBytes, cfg.Server); err != nil {
					t.Fatal(err)
				}
			}
			p := newPipeline(newMigrator(cfg, servers), pageSize, sim.Workers(false), shardBatch)
			want := min(cfg.Shards, procs)
			if want == 1 {
				want = 0
			}
			if len(p.queues) != want {
				t.Errorf("GOMAXPROCS=%d: %d drain goroutines, want %d", procs, len(p.queues), want)
			}
			p.add(3, at(1000, outside)) // first failure in arrival order
			p.add(0, at(2000, 0))
			p.add(1, at(3000, outside)) // lowest-index failure
			p.add(1, at(4000, 0))       // after shard 1's failure: not served
			p.add(2, at(5000, 0))
			err := p.barrier()
			p.stop()
			if err == nil || !strings.HasPrefix(err.Error(), "fleet: shard 1 arrival at 3000:") || !errors.Is(err, core.ErrOutOfRange) {
				t.Errorf("GOMAXPROCS=%d: barrier returned %v, want shard 1's out-of-range failure", procs, err)
			}
			for sh, srv := range servers {
				if got := srv.Arrivals(); got != 1 {
					t.Errorf("GOMAXPROCS=%d: shard %d served %d arrivals, want 1", procs, sh, got)
				}
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
				runtime.Gosched()
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("GOMAXPROCS=%d: %d goroutines after stop, %d before", procs, n, before)
			}
		})
	}
}
