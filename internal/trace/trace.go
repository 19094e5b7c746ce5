// Package trace records and replays memory-access traces against a
// hierarchy, and generates synthetic traces (sequential, uniform, Zipfian,
// strided) — the workload-generation layer of the benchmark harness.
//
// The on-disk format is one operation per line:
//
//	R <addr> <size>
//	W <addr> <size>
//	P <addr> <size>   (persist barrier)
//
// Addresses are region-relative decimal byte offsets.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/workload"
)

// Kind is an operation type.
type Kind byte

// Operation kinds.
const (
	Read    Kind = 'R'
	Write   Kind = 'W'
	Persist Kind = 'P'
)

// Op is one trace operation, addressed relative to the replay region.
type Op struct {
	Kind Kind
	Addr uint64
	Size int
}

// Trace is an ordered operation sequence.
type Trace []Op

// WriteTo encodes the trace in the line format.
func (t Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, op := range t {
		k, err := fmt.Fprintf(bw, "%c %d %d\n", op.Kind, op.Addr, op.Size)
		n += int64(k)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Parse decodes a trace from the line format.
func Parse(r io.Reader) (Trace, error) {
	var t Trace
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if s == "" {
			continue
		}
		var k byte
		var op Op
		if _, err := fmt.Sscanf(s, "%c %d %d", &k, &op.Addr, &op.Size); err != nil {
			return nil, fmt.Errorf("trace: line %d: %v", line, err)
		}
		switch Kind(k) {
		case Read, Write, Persist:
			op.Kind = Kind(k)
		default:
			return nil, fmt.Errorf("trace: line %d: unknown op %q", line, k)
		}
		if op.Size <= 0 {
			return nil, fmt.Errorf("trace: line %d: non-positive size", line)
		}
		t = append(t, op)
	}
	return t, sc.Err()
}

// Pattern names a synthetic access pattern.
type Pattern string

// Synthetic patterns.
const (
	Sequential Pattern = "seq"
	Uniform    Pattern = "rand"
	Zipfian    Pattern = "zipf"
	Strided    Pattern = "stride"
)

// GenConfig parameterizes Generate.
type GenConfig struct {
	Pattern    Pattern
	Ops        int
	AccessSize int    // bytes per access
	Extent     uint64 // region bytes the trace covers
	WriteFrac  float64
	Seed       uint64
}

// Generate builds a synthetic trace.
func Generate(cfg GenConfig) (Trace, error) {
	if cfg.Ops <= 0 || cfg.AccessSize <= 0 || cfg.Extent < uint64(cfg.AccessSize) {
		return nil, fmt.Errorf("trace: bad generator config %+v", cfg)
	}
	if cfg.WriteFrac < 0 || cfg.WriteFrac > 1 {
		return nil, fmt.Errorf("trace: WriteFrac %f", cfg.WriteFrac)
	}
	rng := sim.NewRNG(cfg.Seed)
	slots := cfg.Extent / uint64(cfg.AccessSize)
	var next func(i int) uint64
	switch cfg.Pattern {
	case Sequential:
		next = func(i int) uint64 { return uint64(i) % slots }
	case Uniform:
		next = func(int) uint64 { return rng.Uint64n(slots) }
	case Zipfian:
		z := workload.NewScrambledZipf(rng, slots, workload.DefaultZipfTheta)
		next = func(int) uint64 { return z.Next() }
	case Strided:
		stride := 8 * 4096 / uint64(cfg.AccessSize) // 8 pages
		next = func(i int) uint64 { return (uint64(i) * stride) % slots }
	default:
		return nil, fmt.Errorf("trace: unknown pattern %q", cfg.Pattern)
	}
	t := make(Trace, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		op := Op{Kind: Read, Addr: next(i) * uint64(cfg.AccessSize), Size: cfg.AccessSize}
		if rng.Float64() < cfg.WriteFrac {
			op.Kind = Write
		}
		t = append(t, op)
	}
	return t, nil
}

// Result reports a replay.
type Result struct {
	Hist    *stats.Histogram
	Elapsed sim.Duration
	Ops     int
}

// Replay runs the trace against region r of hierarchy h, recording
// per-operation latency. Persist ops on non-persistent regions fall back to
// SyncPages via the hierarchy's own semantics.
func Replay(h core.Hierarchy, region core.Region, t Trace) (Result, error) {
	res, _, err := replay(h, region, t, false)
	return res, err
}

// ReplayCrashAware is Replay under fault injection: when a scheduled power
// loss interrupts an operation it recovers the hierarchy, retries the
// interrupted operation, and continues. Returns how many crashes the replay
// survived alongside the result.
func ReplayCrashAware(h core.Hierarchy, region core.Region, t Trace) (Result, int, error) {
	return replay(h, region, t, true)
}

func replay(h core.Hierarchy, region core.Region, t Trace, rideThrough bool) (Result, int, error) {
	hist := stats.NewHistogram()
	buf := make([]byte, 4096)
	crashes := 0
	start := h.Now()
	for i, op := range t {
		if op.Addr+uint64(op.Size) > region.Size {
			return Result{}, crashes, fmt.Errorf("trace: op %d outside region", i)
		}
		if op.Size > len(buf) {
			buf = make([]byte, op.Size)
		}
		var (
			lat sim.Duration
			err error
		)
		for {
			switch op.Kind {
			case Read:
				lat, err = h.Read(region.Base+op.Addr, buf[:op.Size])
			case Write:
				lat, err = h.Write(region.Base+op.Addr, buf[:op.Size])
			case Persist:
				lat, err = h.Persist(region.Base+op.Addr, op.Size)
			}
			if rideThrough && errors.Is(err, core.ErrCrashed) {
				// The engine consumes each scheduled crash once, so the retry
				// loop terminates when the plan runs out.
				h.Recover()
				crashes++
				continue
			}
			break
		}
		if err != nil {
			return Result{}, crashes, fmt.Errorf("trace: op %d: %w", i, err)
		}
		hist.Record(lat)
	}
	return Result{Hist: hist, Elapsed: h.Now().Sub(start), Ops: len(t)}, crashes, nil
}
