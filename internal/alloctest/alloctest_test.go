package alloctest

import (
	"fmt"
	"testing"

	"flatflash/internal/sim"
)

// recorder is a testing.TB that notes a failure instead of ending the test.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) { r.failure = fmt.Sprintf(format, args...) }

var sink []byte

// TestExactCatchesRareAllocation: a body that allocates once per 512 calls
// averages under one allocation per call, which testing.AllocsPerRun
// truncates to 0; Exact must count both allocations of 1024 calls.
func TestExactCatchesRareAllocation(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	n := 0
	body := func() {
		n++
		if n%512 == 0 {
			sink = make([]byte, 64)
		}
	}
	rec := &recorder{}
	Exact(rec, 1024, 0, body)
	if rec.failure == "" {
		t.Fatal("a budget of 0 passed a body that allocates once per 512 calls")
	}
	rec.failure = ""
	n = 0
	Exact(rec, 1024, 2, body)
	if rec.failure != "" {
		t.Fatalf("exact count rejected: %s", rec.failure)
	}
}
