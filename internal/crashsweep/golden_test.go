package crashsweep

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"

	"flatflash/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.txt from the current harness")

const goldenPath = "testdata/sweep_golden.txt"

// sweepGolden renders testConfig's sweep in five forms: clean, with the
// demand-paged map, with the sabotaged recovery (both workloads' violation
// texts), under NAND program/erase failures and under a drained battery.
func sweepGolden(t *testing.T) []byte {
	t.Helper()
	forms := []struct {
		name string
		edit func(*Config)
	}{
		{"clean", func(*Config) {}},
		{"map-cache=4", func(c *Config) { c.MapCachePages = 4 }},
		{"break-recovery", func(c *Config) { c.BreakRecovery = true }},
		{"nand-failures", func(c *Config) {
			c.ExtraPlan = fault.Plan{
				{Kind: fault.ProgramFail, At: 0, N: 3},
				{Kind: fault.EraseFail, At: 0, N: 1},
			}
		}},
		{"battery-drain", func(c *Config) {
			c.ExtraPlan = fault.Plan{{Kind: fault.BatteryDrain, At: 0, N: 0}}
		}},
	}
	var buf bytes.Buffer
	for _, f := range forms {
		cfg := testConfig()
		f.edit(&cfg)
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&buf, "== %s\n", f.name)
		if err := rep.Write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// The sweep fixture pins the harness's bytes: crash times, fault counts,
// recovery outcomes and violation texts for both workloads. Regenerate with
// `go test ./internal/crashsweep -run TestSweepGolden -update` only for an
// intended semantic change.
func TestSweepGolden(t *testing.T) {
	if *updateGolden {
		if err := os.WriteFile(goldenPath, sweepGolden(t), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := sweepGolden(t); !bytes.Equal(got, want) {
		t.Errorf("crash sweep diverges from %s:\n%s", goldenPath, got)
	}
}
