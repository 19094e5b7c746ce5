package main

import (
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"flatflash/internal/sim"
)

// now is the benchmark's only host-clock read.
func now() time.Time {
	//lint:ignore walltime the benchmark measures the simulator's host cost; no value it reads reaches the model
	return time.Now()
}

// since returns the host seconds elapsed after t.
func since(t time.Time) float64 { return now().Sub(t).Seconds() }

// instance is one built workload, ready to measure.
type instance interface {
	// step runs one batch of operations and returns how many it attempted.
	// A batch made of long parts calls mark between them, so the reference
	// kernel tracks the machine's speed through the batch.
	step(mark func()) int64
	// passDone reports whether the fixed, deterministic pass has completed;
	// every model outcome in pass() is taken over that pass alone, so it does
	// not depend on how fast the host ran.
	passDone() bool
	// pass returns the outcome of the fixed pass; valid once passDone.
	pass() *passResult
	// failures counts failed operations and failed checks so far.
	failures() int64
	// traceWith routes the instance's calls through t and turns the
	// simulator's latency attribution on, for the traced half of a per-layer
	// run. Observability must not change the model: the pass digest stays.
	traceWith(t *tracer)
}

// window is one timed stretch of a run.
type window struct {
	ops   int64
	rates []float64 // ops per host second, one per batch
	refs  []float64 // reference-kernel runs per host second, after each batch
	norm  []float64 // ops per reference-kernel run, one per batch
}

// measure runs batches closed-loop — the next starts when the previous
// returns — until seconds have passed and the fixed pass is complete.
//
// The reference kernel runs between batches and wherever a batch marks a
// part boundary. Each part's host time is converted to reference runs at
// the mean of the kernel's rates on either side of it; a batch's ops over
// its parts' reference runs is its normalized rate. Kernel time is excluded
// from every rate.
func measure(in instance, seconds float64, ref *refKernel) window {
	var w window
	prev := ref.rate()
	var (
		part     time.Time
		busy, rs float64 // a batch's host seconds and reference runs
	)
	mark := func() {
		d := since(part)
		r := ref.rate()
		busy += d
		rs += d * (prev + r) / 2
		prev = r
		part = now()
	}
	start := now()
	for {
		busy, rs = 0, 0
		part = now()
		n := in.step(mark)
		mark()
		w.ops += n
		w.rates = append(w.rates, float64(n)/busy)
		w.refs = append(w.refs, prev)
		w.norm = append(w.norm, float64(n)/rs)
		if in.passDone() && since(start) >= seconds {
			break
		}
	}
	return w
}

// refKernel is a fixed unit of host work that shares no code with the
// simulator: a chase of dependent loads through a random cyclic permutation
// of 8 MiB, four times this machine's L2 cache. A shared machine runs
// everything slower or faster as its neighbours' load comes and goes,
// through the cores and through the shared cache alike, and a chain of cache
// misses feels that the way the simulator's pointer-heavy state does. The
// common factor cancels in ops counted per kernel run instead of per second,
// which separates a slower machine from a slower simulator.
type refKernel struct {
	next []uint32
	pos  uint32
}

const (
	refEntries = 1 << 21 // 8 MiB of uint32
	refSteps   = 4000
)

// newRefKernel builds the permutation as one cycle (Sattolo's algorithm), so
// every run chases the same number of distinct entries.
func newRefKernel(entries int) *refKernel {
	k := &refKernel{next: make([]uint32, entries)}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	rng := sim.NewRNG(1)
	for i := entries - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	return k
}

// rate runs the kernel once and returns its runs per host second.
func (k *refKernel) rate() float64 {
	t := now()
	p := k.pos
	for i := 0; i < refSteps; i++ {
		p = k.next[p]
	}
	k.pos = p
	return 1 / since(t)
}

// settle collects garbage and returns freed memory to the OS, so one set-up's
// leftovers neither inflate the next one's time nor the peak RSS.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// maxRSSMiB returns the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) ("exclusive"), so spreads printed
// here match a check computed there. Fewer than two values give that value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// FNV-1a, 64-bit, folded one little-endian word at a time so the hot loop
// hashes a latency without an interface call or a byte slice.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func foldBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}

// ratio returns a/b, or 0 when b is 0 (a counter the workload never moves).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
