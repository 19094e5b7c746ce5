package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

// openLoopDir holds `flatflash-sim -openloop` output captured from the
// retired single-device engine: for each case, the CLI arguments
// (<case>.args), stdout (<case>.stdout) and any latency or flight dump
// (<case>.latency.jsonl, <case>.flight.jsonl). scripts/ci.sh replays one
// case through the CLI and compares the bytes.
const openLoopDir = "testdata/openloop"

// cliOpenLoop returns the fleet configuration flatflash-sim -openloop builds
// at its flag defaults: one shard over a 256 MiB SSD with 4 MiB of DRAM, a
// 32 MiB region and 20000 zipf arrivals at 100k/s.
func cliOpenLoop() Config {
	dev := core.DefaultConfig(256<<20, 4<<20)
	return Config{
		Shards: 1,
		Device: &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:       "zipf",
			Rate:          100000,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 20,
			RegionBytes:   32 << 20,
			Ops:           20000,
			Seed:          1,
		},
		Server: mtsim.ServerOptions{IssueOverhead: 300},
	}
}

// openLoopCase is one golden: its file stem in openLoopDir and the fleet
// config its <case>.args describe.
type openLoopCase struct {
	name string
	cfg  Config
}

// openLoopCases mirrors each <case>.args in openLoopDir as a fleet config,
// each with a fresh flight recorder where the case dumps one.
func openLoopCases() []openLoopCase {
	obs := cliOpenLoop() // -slo 200us -mix zipf+txlog -latency-out -flight-out
	obs.Arrivals.MixSpec = "zipf+txlog"
	obs.Server.SLO = 200 * sim.Microsecond
	obs.Server.Attrib = true
	obs.Server.Flight = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)

	mapCache := cliOpenLoop() // -slo 100us -shed-wait 30us -map-cache 4
	mapCache.Device.MapCachePages = 4
	mapCache.Server.SLO = 100 * sim.Microsecond
	mapCache.Server.ShedWait = 30 * sim.Microsecond

	queue := cliOpenLoop() // -rate 2000000 -ops 6000 -wss 512KB -qdepth 4 -batch 8 -amp 0.3 -seed 7
	queue.Arrivals.Rate = 2000000
	queue.Arrivals.Ops = 6000
	queue.Arrivals.RegionBytes = 512 << 10
	queue.Arrivals.DiurnalAmp = 0.3
	queue.Arrivals.Seed = 7
	queue.Server.QueueDepth = 4
	queue.Server.Batch = 8

	lat := cliOpenLoop() // -mix txlog -rate 50000 -ops 5000 -latency-out
	lat.Arrivals.MixSpec = "txlog"
	lat.Arrivals.Rate = 50000
	lat.Arrivals.Ops = 5000
	lat.Server.Attrib = true

	return []openLoopCase{{"obs", obs}, {"mapcache", mapCache}, {"queue", queue}, {"lat", lat}}
}

// readGolden returns a golden file's bytes, or nil when the case has none.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(openLoopDir, name))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The degenerate-fleet gate: a 1-shard fleet, and a 2-shard fleet whose
// ring pins every page to shard 0, must reproduce the single-device
// open-loop goldens byte for byte — shard 0's report line, its latency
// budget, and its latency and flight dumps — while shard 1 stays untouched.
// The stdout golden's header and dump-path lines are the CLI's own and are
// skipped here; the CI open-loop smoke covers them.
func TestFleetDegenerateMatchesOpenLoop(t *testing.T) {
	pinned, err := PinnedRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, shape := range []struct {
		label  string
		shards int
		ring   *Ring
	}{{"1-shard real ring", 1, nil}, {"2-shard pinned ring", 2, pinned}} {
		for _, tc := range openLoopCases() {
			name, cfg := tc.name+", "+shape.label, tc.cfg
			cfg.Shards, cfg.Ring = shape.shards, shape.ring
			stdout := string(readGolden(t, tc.name+".stdout"))
			lines := strings.SplitAfter(stdout, "\n")
			if !strings.HasPrefix(lines[0], "openloop ") {
				t.Fatalf("%s: malformed golden stdout:\n%s", name, stdout)
			}
			var want strings.Builder
			for _, l := range lines[1:] {
				if !strings.HasPrefix(l, "latency: ") && !strings.HasPrefix(l, "flight: ") {
					want.WriteString(l)
				}
			}

			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			srv := res.Shards[0]
			var got bytes.Buffer
			if err := srv.WriteReport(&got, 0); err != nil {
				t.Fatal(err)
			}
			att := srv.Attribution()
			if att != nil {
				if err := att.WriteBudget(&got); err != nil {
					t.Fatal(err)
				}
			}
			if got.String() != want.String() {
				t.Errorf("%s: shard 0 diverges from the single-device golden:\nfleet:\n%sgolden:\n%s",
					name, got.String(), want.String())
			}
			if wantLat := readGolden(t, tc.name+".latency.jsonl"); wantLat != nil {
				var dump bytes.Buffer
				if err := att.WriteJSONL(&dump); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dump.Bytes(), wantLat) {
					t.Errorf("%s: latency dump diverges from the golden", name)
				}
			}
			if wantFlight := readGolden(t, tc.name+".flight.jsonl"); wantFlight != nil {
				var dump bytes.Buffer
				if err := cfg.Server.Flight.WriteDump(&dump); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(dump.Bytes(), wantFlight) {
					t.Errorf("%s: flight dump diverges from the golden", name)
				}
			}
			for i := 1; i < len(res.Shards); i++ {
				if n := res.Shards[i].Arrivals(); n != 0 {
					t.Errorf("%s: shard %d saw %d arrivals, want 0", name, i, n)
				}
			}
		}
	}
}
