package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach calls f(i) once for every i in [0, n) on up to workers goroutines
// and returns the first non-nil error in index order, so failures are as
// deterministic as results. workers is clamped to [1, n]; the calling
// goroutine is one of them, so at 1 every call runs in-line, in index
// order. Every call finishes before ForEach returns, and each index runs on
// exactly one goroutine, so f may write index-owned state without locking.
//
// It is the repository's one worker pool: the paper figures' independent
// simulations, the consolidate and fleet sweeps' grid points, a fleet's
// shard batches and flatflash-lint's packages all fan out through it.
// Workers picks the worker count for every grid of independent simulations.
func ForEach(n, workers int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			errs[i] = f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Workers is the one rule for how many goroutines a grid of independent
// simulations gets: GOMAXPROCS, or 1 when the caller has attached a sink
// that all of its runs share. A shared sink records in call order, so its
// runs must go in-line, in index order, for traces and dumps to keep their
// bytes. Reports never depend on the answer, only wall-clock time does.
func Workers(sharedSink bool) int {
	if sharedSink {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}
