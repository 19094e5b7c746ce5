package experiments

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"flatflash/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick_golden.txt from the current model")

const quickGoldenPath = "testdata/quick_golden.txt"

// The quick golden pins every paper report at Quick scale: RunAll's output
// must match the committed bytes. A host-side optimisation must leave it
// untouched; regenerate with `go test ./internal/experiments -run
// TestQuickReportsGolden -update` only for an intended model change.
func TestQuickReportsGolden(t *testing.T) {
	if testing.Short() || sim.RaceEnabled {
		t.Skip("runs every experiment; skipped under -short and -race")
	}
	var got bytes.Buffer
	if err := RunAll(&got, Quick); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(quickGoldenPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(quickGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("RunAll(Quick) diverges from %s:\n%s", quickGoldenPath, got.Bytes())
	}
}
