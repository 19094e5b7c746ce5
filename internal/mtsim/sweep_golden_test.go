package mtsim

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"flatflash/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.txt from the current engine")

const sweepGoldenPath = "testdata/sweep_golden.txt"

// sweepGolden renders the consolidation sweep at the flatflash-bench
// consolidate subcommand's defaults.
func sweepGolden(t *testing.T) []byte {
	t.Helper()
	dev := DefaultDeviceConfig()
	res, err := Sweep(Config{Device: &dev},
		TenantSpec{Ops: 500, RegionBytes: 256 << 10, Think: sim.Micros(1)},
		[]int{1, 2, 4}, []string{"zipf+uniform+ycsb-b+txlog"}, []uint64{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The sweep fixture pins the consolidation engine's bytes: grid expansion,
// per-tenant specs and seeds, the solo golden runs and the shared run.
// Regenerate with `go test ./internal/mtsim -run TestSweepGolden -update`
// only for an intended semantic change.
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
		t.Errorf("consolidation sweep diverges from %s:\n%s", sweepGoldenPath, got)
	}
}
