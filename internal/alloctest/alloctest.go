// Package alloctest pins allocation budgets exactly. testing.AllocsPerRun
// truncates its per-run average to an integer, so a body that allocates on
// only some calls (amortised slice growth, a pool refill) reads 0 and
// passes; Exact counts every allocation of every call instead.
package alloctest

import (
	"runtime"
	"testing"
)

// Exact calls body once to warm it, then calls more times between two
// runtime.ReadMemStats, and fails tb unless those calls made exactly want
// heap allocations in total. Like testing.AllocsPerRun it runs at
// GOMAXPROCS 1, so no other goroutine of the test binary allocates in
// parallel. Callers skip it under the race detector, whose instrumentation
// allocates on its own.
func Exact(tb testing.TB, calls int, want uint64, body func()) {
	tb.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	body()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		body()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != want {
		tb.Fatalf("%d calls made %d heap allocations, want %d", calls, got, want)
	}
}
