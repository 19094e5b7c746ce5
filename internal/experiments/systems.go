package experiments

import (
	"fmt"
	"strconv"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// sysName labels for the three hierarchies, in the paper's order.
var sysNames = []string{"FlatFlash", "UnifiedMMap", "TraditionalStack"}

// Package-level telemetry sinks, installed with SetTelemetry. Nil (the
// default) keeps every access path allocation-free.
var (
	telTracer *telemetry.Tracer
	telReg    *telemetry.Registry
	attSink   *telemetry.Attribution
	attRec    *telemetry.FlightRecorder

	// mapCachePages > 0 switches every hierarchy built by the experiments to
	// the demand-paged translation map (flatflash-bench's -map-cache flag).
	mapCachePages int

	// parallelWorkers is each sweep point's fan-out worker count
	// (flatflash-bench's -parallel flag). Reports are byte-identical either
	// way.
	parallelWorkers int
)

// SetParallel makes subsequent experiment runs fan each simulation's
// independent parts out over workers goroutines: a fleet's shard batches, a
// consolidation's solo and shared runs (0 or 1, the default, runs them
// in-line). Only the consolidate and fleet sweeps use it; reports never
// change, only wall-clock time does.
func SetParallel(workers int) { parallelWorkers = workers }

// SetMapCache makes subsequent experiment runs build every hierarchy with
// the FTL's demand-paged translation map, keeping pages translation pages
// resident (0, the default, keeps the all-in-memory map). The mapsweep and
// mapamp experiments set their own sizes and ignore this.
func SetMapCache(pages int) { mapCachePages = pages }

// SetTelemetry attaches a span tracer and metrics registry to every
// hierarchy built by subsequent experiment runs (flatflash-bench's
// -trace-out/-metrics-out flags). Either may be nil. Hierarchies share the
// consumers; the registry disambiguates duplicate gauge names
// deterministically.
func SetTelemetry(tr *telemetry.Tracer, r *telemetry.Registry) {
	telTracer, telReg = tr, r
}

// SetAttribution attaches a latency attribution engine and flight recorder
// to every FlatFlash hierarchy built by subsequent experiment runs
// (flatflash-bench's -latency-out/-flight-out/-slo flags). Either may be
// nil. Hierarchies share the sinks, so the engine aggregates per-component
// latency across every FlatFlash instance an experiment builds; the
// consolidate sweep additionally gets per-point engines through mtsim.
func SetAttribution(a *telemetry.Attribution, r *telemetry.FlightRecorder) {
	attSink, attRec = a, r
}

// build constructs one hierarchy by name from cfg.
func build(name string, cfg core.Config) (core.Hierarchy, error) {
	if mapCachePages > 0 && cfg.MapCachePages == 0 {
		cfg.MapCachePages = mapCachePages
		cfg.MapPipeline = true
	}
	var (
		h   core.Hierarchy
		err error
	)
	switch name {
	case "FlatFlash":
		h, err = core.NewFlatFlash(cfg)
	case "UnifiedMMap":
		h, err = core.NewUnifiedMMap(cfg)
	case "TraditionalStack":
		h, err = core.NewTraditionalStack(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", name)
	}
	if err != nil {
		return nil, err
	}
	if ff, ok := h.(*core.FlatFlash); ok && (attSink != nil || attRec != nil) {
		ff.SetFlightRecorder(attRec)
		ff.SetAttribution(attSink)
	}
	if telTracer != nil || telReg != nil {
		h.Instrument(telTracer, telReg)
	}
	return h, nil
}

// dumpCounters appends selected counters from h (all of them, sorted, when
// names is empty) to the report's metric footnotes, prefixed by the system
// name. Snapshot order is deterministic.
func dumpCounters(r *Report, h core.Hierarchy, names ...string) {
	c := h.Counters()
	if len(names) == 0 {
		for _, kv := range c.Snapshot() {
			r.AddMetric(h.Name()+"."+kv.Name, strconv.FormatInt(kv.Value, 10))
		}
		return
	}
	for _, n := range names {
		r.AddMetric(h.Name()+"."+n, strconv.FormatInt(c.Get(n), 10))
	}
}

// mustBuild panics on construction failure (configs are internal constants).
func mustBuild(name string, cfg core.Config) core.Hierarchy {
	h, err := build(name, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// ratio formats a/b as "N.NNx" (guarding zero).
func ratio(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// us formats a duration in microseconds.
func us(d sim.Duration) string { return fmt.Sprintf("%.2fµs", d.Micros()) }

// mb formats a byte count in MB/GB.
func mb(b uint64) string {
	if b >= 1<<30 {
		return fmt.Sprintf("%dGB", b>>30)
	}
	if b >= 1<<20 {
		return fmt.Sprintf("%dMB", b>>20)
	}
	return fmt.Sprintf("%dKB", b>>10)
}
