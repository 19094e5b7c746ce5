package core

import (
	"runtime"
	"testing"

	"flatflash/internal/sim"
)

// TestBuildCostIndependentOfCapacity pins that building a hierarchy costs
// what it will map and touch, not what the device could hold: the page
// table, the TLB index, flash's per-page state, the FTL's maps and DRAM's
// frames all start empty. A 1 GiB SSD, and Table 3's DRAM-only comparator
// whose DRAM covers a 512 MiB SSD, each build within 1 MiB: less than any
// one per-page array sized to their capacity would take.
func TestBuildCostIndependentOfCapacity(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const budget = 1 << 20
	dramOnly := DefaultConfig(512<<20, 2<<20)
	dramOnly.DRAMBytes = dramOnly.SSDBytes
	dramOnly.Promotion = PromoteAlways
	cases := []struct {
		name string
		cfg  Config
	}{
		{"1GiB", DefaultConfig(1<<30, 2<<20)},
		{"dram-only-512MiB", dramOnly},
	}
	for _, tc := range cases {
		for _, kind := range []string{"FlatFlash", "UnifiedMMap", "TraditionalStack"} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			h, err := New(kind, tc.cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(h)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("%s %s: building allocates %d bytes, want at most %d", tc.name, kind, got, budget)
			}
		}
	}
}
