package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/telemetry"
)

// sysName labels for the three hierarchies, in the paper's order.
var sysNames = []string{"FlatFlash", "UnifiedMMap", "TraditionalStack"}

// env is the settings the experiments build their hierarchies under,
// installed with the Set functions below. Cell bodies may run
// concurrently, so they get it as an argument; current, the installed
// copy, is read only by fanOut and the consolidate and fleet sweeps.
type env struct {
	// mapCache > 0 switches every hierarchy built by the experiments to
	// the demand-paged translation map (flatflash-bench's -map-cache flag).
	mapCache int
	// Shared telemetry sinks. Nil (the default) keeps every access path
	// allocation-free.
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	att    *telemetry.Attribution
	rec    *telemetry.FlightRecorder
}

var current env

// SetMapCache makes subsequent experiment runs build every hierarchy with
// the FTL's demand-paged translation map, keeping pages translation pages
// resident (0, the default, keeps the all-in-memory map). The mapsweep and
// mapamp experiments set their own sizes and ignore this.
func SetMapCache(pages int) { current.mapCache = pages }

// SetTelemetry attaches a span tracer and metrics registry to every
// hierarchy built by subsequent experiment runs (flatflash-bench's
// -trace-out/-metrics-out flags). Either may be nil. Hierarchies share the
// consumers; the registry disambiguates duplicate gauge names
// deterministically.
func SetTelemetry(tr *telemetry.Tracer, r *telemetry.Registry) {
	current.tracer, current.reg = tr, r
}

// SetAttribution attaches a latency attribution engine and flight recorder
// to every FlatFlash hierarchy built by subsequent experiment runs
// (flatflash-bench's -latency-out/-flight-out/-slo flags). Either may be
// nil. Hierarchies share the sinks, so the engine aggregates per-component
// latency across every FlatFlash instance an experiment builds; the
// consolidate sweep additionally gets per-point engines through mtsim.
func SetAttribution(a *telemetry.Attribution, r *telemetry.FlightRecorder) {
	current.att, current.rec = a, r
}

// fanOut runs cell(e, i) for every i in [0, n) and returns the results in
// index order. A cell is one independent simulation: it builds its own
// hierarchy and runs one workload on it, so the cells fan out through
// sim.ForEach on sim.Workers goroutines and the caller assembles its
// reports from the slots exactly as a sequential loop would. Every sink in
// env is shared by all the cells, so with any of them attached the cells
// run in-line, in index order, and traces and dumps keep their bytes too.
// The first failing cell in index order panics (configs are internal
// constants, so a failure is a bug).
func fanOut[T any](n int, cell func(e env, i int) (T, error)) []T {
	e := current
	workers := sim.Workers(e.tracer != nil || e.reg != nil || e.att != nil || e.rec != nil)
	out := make([]T, n)
	must(sim.ForEach(n, workers, func(i int) error {
		var err error
		out[i], err = cell(e, i)
		return err
	}))
	return out
}

// counted is a cell's workload result with its hierarchy's counters as they
// stood when the workload ended.
type counted[R any] struct {
	res R
	c   *stats.Counters
}

// build constructs one hierarchy by name from cfg under e's settings. Cells
// call it concurrently, so it reads only its arguments.
//
//flatflash:lp
func (e env) build(name string, cfg core.Config) (core.Hierarchy, error) {
	if e.mapCache > 0 && cfg.MapCachePages == 0 {
		cfg.MapCachePages = e.mapCache
	}
	h, err := core.New(name, cfg)
	if err != nil {
		return nil, err
	}
	if ff, ok := h.(*core.FlatFlash); ok && (e.att != nil || e.rec != nil) {
		ff.SetFlightRecorder(e.rec)
		ff.SetAttribution(e.att)
	}
	if e.tracer != nil || e.reg != nil {
		h.Instrument(e.tracer, e.reg)
	}
	return h, nil
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
