package fleet

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata goldens from the current engine")

const goldenPath = "testdata/engine_golden.txt"

// randomShape draws one randomized fleet shape — shard count, rate, op
// count, arrival seed, and (on a coin flip) a migration epoch and page
// budget.
func randomShape(rng *sim.RNG) Config {
	cfg := fleetConfig(2+int(rng.Uint64n(4)), 30000+float64(rng.Uint64n(500000)))
	cfg.Arrivals.Ops = 1000 + int(rng.Uint64n(2000))
	cfg.Arrivals.Seed = rng.Uint64()
	if rng.Uint64n(2) == 0 {
		cfg.MigrateEpoch = sim.Duration(300*sim.Microsecond) + sim.Duration(rng.Uint64n(uint64(2*sim.Millisecond)))
		cfg.MigratePages = 4 + int(rng.Uint64n(16))
	}
	return cfg
}

// engineGolden renders the engine fixture: the migration config at two
// epochs, eight seeded random shapes, and a shedding run's report plus its
// flight-recorder dump.
func engineGolden(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	section := func(name string, cfg Config) {
		fmt.Fprintf(&buf, "== %s\n%s", name, fleetReport(t, cfg))
	}

	section("migration epoch=1ms", migrationConfig())
	fast := migrationConfig()
	fast.MigrateEpoch = 300 * sim.Microsecond
	section("migration epoch=300us", fast)

	rng := sim.NewRNG(5)
	for i := 0; i < 8; i++ {
		cfg := randomShape(rng)
		section(fmt.Sprintf("shape %d shards=%d epoch=%d", i, cfg.Shards, int64(cfg.MigrateEpoch)), cfg)
	}

	flight := migrationConfig()
	flight.Server.SLO = 50 * sim.Microsecond
	flight.Server.Flight = telemetry.NewFlightRecorder(
		telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	section("flight slo=50us", flight)
	fmt.Fprintf(&buf, "== flight dump\n")
	if err := flight.Server.Flight.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The engine fixture pins the fleet's event semantics: reports and flight
// dumps must match the committed bytes at every GOMAXPROCS, in-line (1) and
// pipelined (2, 4). Regenerate with
// `go test ./internal/fleet -run TestEngineGolden -update` only for an
// intended semantic change.
func TestEngineGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(goldenPath, engineGolden(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(procs, func() {
			if got := engineGolden(t); !bytes.Equal(got, want) {
				t.Errorf("GOMAXPROCS=%d diverges from %s:\n%s", procs, goldenPath, got)
			}
		})
	}
}
