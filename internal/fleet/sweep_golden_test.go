package fleet

import (
	"bytes"
	"os"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

const sweepGoldenPath = "testdata/sweep_golden.txt"

// sweepGolden renders the fleet sweep at the flatflash-bench fleet
// subcommand's defaults over the CI smoke grid:
// -shards 1,2 -rates 50000,400000 -ops 800 -region 262144 -slo 400us.
func sweepGolden(t *testing.T) []byte {
	t.Helper()
	dev := core.DefaultConfig(256<<20, 4<<20)
	slo := 400 * sim.Microsecond
	res, err := Sweep(Config{
		Device: &dev,
		Arrivals: workload.ArrivalConfig{
			MixSpec:       "zipf",
			DiurnalAmp:    0.4,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 20,
			RegionBytes:   262144,
			Ops:           800,
		},
		Server: mtsim.ServerOptions{
			IssueOverhead: 300,
			SLO:           slo,
			Attrib:        true,
		},
	}, []int{1, 2}, []float64{50000, 400000}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The sweep fixture pins the fleet sweep's bytes: grid expansion and the
// per-point arrival rate and seed. Regenerate with
// `go test ./internal/fleet -run TestSweepGolden -update` only for an
// intended semantic change.
func TestSweepGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(sweepGoldenPath, sweepGolden(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(sweepGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepGolden(t); !bytes.Equal(got, want) {
		t.Errorf("fleet sweep diverges from %s:\n%s", sweepGoldenPath, got)
	}
}
