// Package obsflags owns the observability lifecycle of the command-line
// tools. It declares every telemetry flag (-trace-out, -metrics-out,
// -metrics-epoch, -latency-out, -flight-out, -slo, -shed-wait and
// -map-cache), builds the consumers the parsed flags ask for, and writes
// every dump with its progress line. Each entry point registers only the
// flag groups its runs honor, so a flag nothing reads is a usage error, not
// a silent no-op, and every flag has one name, default and help text.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Set is a group of observability flags an entry point honors.
type Set uint8

// The flag groups.
const (
	Trace    Set = 1 << iota // -trace-out
	Metrics                  // -metrics-out and -metrics-epoch
	Latency                  // -latency-out
	Flight                   // -flight-out
	SLO                      // -slo
	ShedWait                 // -shed-wait (open-loop admission control)
	MapCache                 // -map-cache
)

// Flags holds one flag set's parsed observability values and, after Build,
// the consumers they ask for.
type Flags struct {
	TraceOut, MetricsOut, LatencyOut, FlightOut string
	MetricsEpoch, SLO, ShedWait                 time.Duration
	MapCache                                    int

	// Built by Build; each is nil when the flags do not ask for it.
	Tracer      *telemetry.Tracer
	Registry    *telemetry.Registry
	Attribution *telemetry.Attribution
	Recorder    *telemetry.FlightRecorder
}

// Register declares the flags of the groups in s on fs.
func Register(fs *flag.FlagSet, s Set) *Flags {
	f := &Flags{}
	if s&Trace != 0 {
		fs.StringVar(&f.TraceOut, "trace-out", "", "write a Chrome/Perfetto trace-event JSON file")
	}
	if s&Metrics != 0 {
		fs.StringVar(&f.MetricsOut, "metrics-out", "", "write epoch-sampled metrics as JSON Lines")
		fs.DurationVar(&f.MetricsEpoch, "metrics-epoch", time.Millisecond, "virtual-time metrics sampling epoch")
	}
	if s&Latency != 0 {
		fs.StringVar(&f.LatencyOut, "latency-out", "", "write the per-component latency attribution dump as JSON Lines to this file")
	}
	if s&Flight != 0 {
		fs.StringVar(&f.FlightOut, "flight-out", "", "write the anomaly flight-recorder dump as JSON Lines to this file")
	}
	if s&SLO != 0 {
		fs.DurationVar(&f.SLO, "slo", 0, "per-op latency SLO; enables violation/burn counters and p99-over-SLO anomaly triggers (0 disables)")
	}
	if s&ShedWait != 0 {
		fs.DurationVar(&f.ShedWait, "shed-wait", 0, "open-loop admission control: shed an arrival whose estimated queue wait exceeds this (0 defaults to half the SLO)")
	}
	if s&MapCache != 0 {
		fs.IntVar(&f.MapCache, "map-cache", 0, "demand-page the FTL's translation map, keeping this many translation pages resident (0 keeps the whole map in memory)")
	}
	return f
}

// AttribEnabled reports whether the flags ask for latency attribution
// (-latency-out or a positive -slo).
func (f *Flags) AttribEnabled() bool { return f.LatencyOut != "" || f.SLO > 0 }

// SLODur returns -slo as a virtual-time duration.
func (f *Flags) SLODur() sim.Duration { return sim.Duration(f.SLO.Nanoseconds()) }

// ShedWaitDur returns -shed-wait as a virtual-time duration.
func (f *Flags) ShedWaitDur() sim.Duration { return sim.Duration(f.ShedWait.Nanoseconds()) }

// MapDevice returns cfg with the FTL's translation map demand-paged to
// -map-cache resident pages (unchanged when -map-cache is 0).
func (f *Flags) MapDevice(cfg core.Config) core.Config {
	cfg.MapCachePages = f.MapCache
	return cfg
}

// Build constructs the consumers the flags ask for: a span tracer for
// -trace-out, a metrics registry for -trace-out or -metrics-out (or always,
// when registry is set, for a run that reports from it), an attribution
// engine when AttribEnabled, and a flight recorder for -flight-out.
func (f *Flags) Build(registry bool) {
	if f.TraceOut != "" {
		f.Tracer = telemetry.NewTracer(telemetry.DefaultTracerCapacity)
	}
	if registry || f.TraceOut != "" || f.MetricsOut != "" {
		f.Registry = telemetry.NewRegistry(sim.Duration(f.MetricsEpoch.Nanoseconds()))
	}
	if f.AttribEnabled() {
		f.Attribution = telemetry.NewAttribution(f.SLODur(), 0)
	}
	f.BuildRecorder()
}

// BuildRecorder constructs only the flight recorder -flight-out asks for,
// for a run whose servers build their own attribution engines per shard or
// grid point and read AttribEnabled instead.
func (f *Flags) BuildRecorder() {
	if f.FlightOut != "" {
		f.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	}
}

// WriteTrace writes the Chrome/Perfetto trace of Tracer and Registry to
// the -trace-out file and its progress line to w, followed by a warning
// line when the span ring overflowed and the file lacks the oldest spans.
func (f *Flags) WriteTrace(w io.Writer) error {
	return write(w, f.TraceOut, func(out io.Writer) error { return telemetry.WriteChromeTrace(out, f.Tracer, f.Registry) },
		func() string {
			line := fmt.Sprintf("trace: %d spans -> %s (load in ui.perfetto.dev)\n", f.Tracer.Recorded(), f.TraceOut)
			if n := f.Tracer.Dropped(); n > 0 {
				line += fmt.Sprintf("trace: ring overflowed, oldest %d spans dropped\n", n)
			}
			return line
		})
}

// WriteMetrics writes Registry's epoch rows to the -metrics-out file and its
// progress line to w.
func (f *Flags) WriteMetrics(w io.Writer) error {
	return write(w, f.MetricsOut, f.Registry.WriteJSONL,
		func() string { return fmt.Sprintf("metrics: %d epochs -> %s\n", len(f.Registry.Rows()), f.MetricsOut) })
}

// WriteFlight writes Recorder's anomaly dump to the -flight-out file and its
// progress line to w.
func (f *Flags) WriteFlight(w io.Writer) error {
	return write(w, f.FlightOut, f.Recorder.WriteDump, func() string {
		return fmt.Sprintf("flight: %d triggers, %d snapshots -> %s\n", f.Recorder.Triggers(), len(f.Recorder.Snapshots()), f.FlightOut)
	})
}

// WriteLatency reports the attribution engines atts, skipping nil ones: it
// prints each engine's latency budget table to w, then writes their JSON
// Lines records, concatenated in order, to the -latency-out file and its
// progress line to w. Grid sweeps pass a nil w, which prints nothing: their
// reports carry the per-point budgets.
func (f *Flags) WriteLatency(w io.Writer, atts ...*telemetry.Attribution) error {
	atts = slices.DeleteFunc(slices.Clone(atts), func(a *telemetry.Attribution) bool { return a == nil })
	accounts := 0
	for _, a := range atts {
		accounts += len(a.Accounts())
		if w != nil {
			if err := a.WriteBudget(w); err != nil {
				return err
			}
		}
	}
	return write(w, f.LatencyOut, func(out io.Writer) error {
		for _, a := range atts {
			if err := a.WriteJSONL(out); err != nil {
				return err
			}
		}
		return nil
	}, func() string { return fmt.Sprintf("latency: %d accounts -> %s\n", accounts, f.LatencyOut) })
}

// write fills path with dump, then prints line() to w. It does nothing when
// path is empty and prints nothing when w is nil.
func write(w io.Writer, path string, dump func(io.Writer) error, line func() string) error {
	if path == "" {
		return nil
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil || w == nil {
		return err
	}
	_, err = io.WriteString(w, line())
	return err
}
