package fleet

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// withGOMAXPROCS runs fn with the scheduler pinned to procs cores and
// restores the previous setting afterwards, so the byte-identity claim is
// checked both with real parallelism and with all shard drains multiplexed
// on one core.
func withGOMAXPROCS(procs int, fn func()) {
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// Fanning shard batches out must reproduce the in-line drain byte for
// byte, whatever the worker count and whatever GOMAXPROCS, on both a
// migration-free fleet and one whose epoch boundaries cut the batches.
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
			seq := fleetReport(t, tc.cfg)
			if tc.name == "migration-2shard" {
				res, err := Run(tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.Migrations == 0 {
					t.Fatal("migration case exercises no migrations")
				}
			}
			for _, procs := range []int{1, 4} {
				for _, workers := range []int{2, 4, 8} {
					withGOMAXPROCS(procs, func() {
						cfg := tc.cfg
						cfg.Parallel = workers
						if got := fleetReport(t, cfg); got != seq {
							t.Errorf("GOMAXPROCS=%d workers=%d diverges from sequential:\n--- seq ---\n%s--- par ---\n%s",
								procs, workers, seq, got)
						}
					})
				}
			}
		})
	}
}

// Single-shard fleets and fleets with a shared flight recorder drain their
// shards in-line, one arrival at a time for the recorder, and must still
// produce the sequential report — and, for the recorder, the sequential
// trigger order, so the flight dump matches byte for byte.
func TestParallelFallsBackToSequential(t *testing.T) {
	single := fleetConfig(1, 200000)
	single.Arrivals.Ops = 2000
	want := fleetReport(t, single)
	single.Parallel = 4
	if got := fleetReport(t, single); got != want {
		t.Fatalf("single-shard parallel run diverges:\n--- seq ---\n%s--- par ---\n%s", want, got)
	}

	flightRun := func(parallel int) (report, dump string) {
		cfg := fleetConfig(2, 4e6)
		cfg.Arrivals.Ops = 2000
		// One snapshot slot per arrival keeps every trigger, so the dump
		// records the whole trigger order.
		rec := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, cfg.Arrivals.Ops)
		cfg.Server.Flight = rec
		cfg.Parallel = parallel
		report = fleetReport(t, cfg)
		snaps := rec.Snapshots()
		for i := 1; i < len(snaps); i++ {
			if snaps[i].At < snaps[i-1].At {
				t.Fatalf("Parallel=%d: trigger %d at %d follows one at %d; triggers must fire in arrival order",
					parallel, i, snaps[i].At, snaps[i-1].At)
			}
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		return report, buf.String()
	}
	seqReport, seqDump := flightRun(0)
	if !strings.Contains(seqDump, `"anomaly":"shed_onset"`) {
		t.Fatalf("overloaded flight run captured no shed_onset snapshot:\n%s", seqDump)
	}
	parReport, parDump := flightRun(4)
	if parReport != seqReport {
		t.Fatalf("flight-recorder report diverges at Parallel=4:\n--- seq ---\n%s--- par ---\n%s", seqReport, parReport)
	}
	if parDump != seqDump {
		t.Fatalf("flight dump diverges at Parallel=4:\n--- seq ---\n%s--- par ---\n%s", seqDump, parDump)
	}
}

// Stress: randomized fleet shapes — shard counts, rates, epochs, seeds —
// must stay byte-identical between in-line and fanned-out drains. Run under
// -race this doubles as a data-race hunt over the shard drains.
func TestParallelStressRandomShapes(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := sim.NewRNG(97)
	for trial := 0; trial < trials; trial++ {
		cfg := randomShape(rng)
		seq := fleetReport(t, cfg)
		cfg.Parallel = 2 + int(rng.Uint64n(7))
		if got := fleetReport(t, cfg); got != seq {
			t.Fatalf("trial %d (shards=%d rate=%.0f epoch=%v workers=%d): parallel diverges:\n--- seq ---\n%s--- par ---\n%s",
				trial, cfg.Shards, cfg.Arrivals.Rate, cfg.MigrateEpoch, cfg.Parallel, seq, got)
		}
	}
}
