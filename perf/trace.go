package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"flatflash/internal/sim"
	"flatflash/internal/stats"
)

// ringSpans is how many of the most recent spans a traced run keeps and
// writes out at exit.
const ringSpans = 1 << 16

// Span names the benchmark records around its own calls into the program.
const (
	spanRead    = "core.read"
	spanWrite   = "core.write"
	spanPersist = "core.persist"
	spanFleet   = "fleet.run"
)

// tracer records host-time spans around the benchmark's calls into each
// layer: one stats.Histogram per span name plus a ring of the latest spans.
// It lives in the benchmark, not the program; spans inside the program are a
// separate change.
type tracer struct {
	t0    time.Time
	ids   map[string]int
	names []string
	hists []*stats.Histogram
	ring  []spanRec
	n     int64 // spans recorded; the ring holds the last min(n, ringSpans)
}

type spanRec struct {
	name  int32
	op    int64
	start int64 // host ns since the tracer started
	dur   int64
}

func newTracer() *tracer {
	return &tracer{t0: now(), ids: make(map[string]int), ring: make([]spanRec, ringSpans)}
}

// id returns the index of span name, registering it on first use.
func (t *tracer) id(name string) int {
	if i, ok := t.ids[name]; ok {
		return i
	}
	t.ids[name] = len(t.names)
	t.names = append(t.names, name)
	t.hists = append(t.hists, stats.NewHistogram())
	return len(t.names) - 1
}

// span records one call of kind id for op that began at start and ends now.
func (t *tracer) span(id int, op int64, start time.Time) {
	end := now()
	d := end.Sub(start).Nanoseconds()
	t.hists[id].Record(sim.Duration(d))
	t.ring[t.n%ringSpans] = spanRec{name: int32(id), op: op, start: start.Sub(t.t0).Nanoseconds(), dur: d}
	t.n++
}

// hist returns the histogram of span name, or nil if none was recorded.
func (t *tracer) hist(name string) *stats.Histogram {
	if i, ok := t.ids[name]; ok {
		return t.hists[i]
	}
	return nil
}

// traceDir is where traced runs leave their span ring and CPU profile,
// relative to the directory the benchmark runs in.
const traceDir = "perf-trace"

// writeRingFile writes the kept spans, oldest first, as JSON Lines to
// perf-trace/<workload>.jsonl.
func (t *tracer) writeRingFile(workload string) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, workload+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	for i := max(0, t.n-ringSpans); i < t.n; i++ {
		r := t.ring[i%ringSpans]
		line, err := json.Marshal(struct {
			Name    string `json:"name"`
			Op      int64  `json:"op"`
			StartNS int64  `json:"start_ns"`
			DurNS   int64  `json:"dur_ns"`
		}{t.names[r.name], r.op, r.start, r.dur})
		if err != nil {
			return err
		}
		bw.Write(line)
		bw.WriteByte('\n')
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// Layers the folded CPU profile charges host time to: every simulator
// package a workload reaches, "perf" for the benchmark's own frames, and
// "gc" for samples with neither (background GC, the scheduler).
var layers = []string{
	"btree", "core", "dram", "experiments", "fault", "flash", "fleet", "fsim",
	"ftl", "gc", "graph", "gups", "kvstore", "mapcache", "mtsim", "pcie",
	"perf", "plb", "promote", "psim", "sim", "ssdcache", "stats", "telemetry",
	"trace", "txdb", "vm", "workload",
}

const internalPrefix = "flatflash/internal/"

// layerOf returns the layer a function frame belongs to, or "" for a frame
// that belongs to none (the runtime, the standard library, an unlisted
// package).
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "perf"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if i := sort.SearchStrings(layers, pkg); i < len(layers) && layers[i] == pkg {
		return pkg
	}
	return ""
}

// foldTraces reads the output of `go tool pprof -traces` and returns the
// sampled host nanoseconds per layer. Each sample is charged to the layer
// of its innermost frame that has one, so runtime and standard-library time
// lands on the simulator code that called it; a sample with no such frame
// goes to "gc".
func foldTraces(r io.Reader) (map[string]int64, error) {
	// The output is a header, then one block per distinct stack, each block
	// opened by a separator line: "<value>   <leaf frame>", then one caller
	// frame per line, outermost last.
	out := make(map[string]int64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var (
		started bool   // past the header
		open    bool   // a block's value line is next
		value   int64  // the current block's sampled ns
		layer   string // the current block's innermost layer so far
		blocks  int
	)
	flush := func() {
		if value == 0 {
			return
		}
		if layer == "" {
			layer = "gc"
		}
		out[layer] += value
		value, layer = 0, ""
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			started, open = true, true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		if open {
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, fmt.Errorf("fold: sample line %q: %w", line, err)
			}
			value, open = v, false
			blocks++
			fields = fields[1:]
			if len(fields) == 0 {
				continue
			}
		}
		if layer == "" {
			layer = layerOf(fields[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if blocks == 0 {
		return nil, fmt.Errorf("fold: no samples in profile traces")
	}
	return out, nil
}

// parseSampleValue parses a CPU sample value as pprof prints it ("10ms",
// "1.20s", "500us", "250ns") into nanoseconds.
func parseSampleValue(s string) (int64, error) {
	units := []struct {
		suffix string
		ns     float64
	}{{"ns", 1}, {"us", 1e3}, {"µs", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(num, 64)
			if err != nil {
				return 0, err
			}
			return int64(f * u.ns), nil
		}
	}
	return 0, fmt.Errorf("unknown unit in %q", s)
}
