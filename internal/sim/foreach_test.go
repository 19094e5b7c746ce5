package sim

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4, 64} {
		const n = 9
		ran := make([]int, n)
		if err := ForEach(n, workers, func(i int) error { ran[i]++; return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, r := range ran {
			if r != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, r)
			}
		}
	}
	if err := ForEach(0, 4, func(int) error { return errors.New("called") }); err != nil {
		t.Fatalf("n=0 called f: %v", err)
	}
}

func TestForEachErrorsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(5, workers, func(i int) error {
			if i >= 2 {
				return fmt.Errorf("index %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 2 failed" {
			t.Fatalf("workers=%d: err = %v, want the index-2 failure", workers, err)
		}
	}
}

// Index-owned writes need no locking: each slot is written by one goroutine,
// and every write is visible once ForEach returns.
func ExampleForEach() {
	squares := make([]int, 5)
	_ = ForEach(len(squares), 3, func(i int) error {
		squares[i] = i * i
		return nil
	})
	fmt.Println(squares)
	// Output: [0 1 4 9 16]
}

// A shared sink forces one worker; otherwise a grid gets every core the
// runtime may use.
func TestWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	if got := Workers(false); got != 3 {
		t.Fatalf("Workers(false) = %d at GOMAXPROCS 3, want 3", got)
	}
	if got := Workers(true); got != 1 {
		t.Fatalf("Workers(true) = %d, want 1", got)
	}
}
