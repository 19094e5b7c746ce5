// Package obsflags defines the observability flags the CLI tools share:
// -latency-out, -flight-out, -slo and -map-cache appear in both
// flatflash-sim and flatflash-bench with identical names, defaults, and
// help wording, so the two usage summaries never drift; -shed-wait appears
// only on the flag sets that drive an open-loop server. The package also
// builds the telemetry sinks those flags ask for and writes their
// deterministic dump files.
package obsflags

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

// Help strings, shared verbatim by every FlagSet that registers the flags.
const (
	LatencyOutHelp = "write the per-component latency attribution dump as JSON Lines to this file"
	FlightOutHelp  = "write the anomaly flight-recorder dump as JSON Lines to this file"
	SLOHelp        = "per-op latency SLO; enables violation/burn counters and p99-over-SLO anomaly triggers (0 disables)"
	ShedWaitHelp   = "open-loop admission control: shed an arrival whose estimated queue wait exceeds this (0 defaults to half the SLO)"
	MapCacheHelp   = "demand-page the FTL's translation map, keeping this many translation pages resident (0 keeps the whole map in memory)"
)

// Flags holds the parsed observability flag values.
type Flags struct {
	LatencyOut *string
	FlightOut  *string
	SLO        *time.Duration
	MapCache   *int
	// ShedWait is set only by RegisterOpenLoop.
	ShedWait *time.Duration
}

// Register installs the shared observability flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	return &Flags{
		LatencyOut: fs.String("latency-out", "", LatencyOutHelp),
		FlightOut:  fs.String("flight-out", "", FlightOutHelp),
		SLO:        fs.Duration("slo", 0, SLOHelp),
		MapCache:   fs.Int("map-cache", 0, MapCacheHelp),
	}
}

// RegisterOpenLoop is Register plus -shed-wait, for the flag sets whose runs
// drive an open-loop server that reads it.
func RegisterOpenLoop(fs *flag.FlagSet) *Flags {
	f := Register(fs)
	f.ShedWait = fs.Duration("shed-wait", 0, ShedWaitHelp)
	return f
}

// AttribEnabled reports whether the flags ask for latency attribution
// (-latency-out or a positive -slo).
func (f *Flags) AttribEnabled() bool { return *f.LatencyOut != "" || *f.SLO > 0 }

// FlightEnabled reports whether the flags ask for a flight recorder.
func (f *Flags) FlightEnabled() bool { return *f.FlightOut != "" }

// SLODur returns the -slo value as a virtual-time duration.
func (f *Flags) SLODur() sim.Duration { return sim.Duration(f.SLO.Nanoseconds()) }

// ShedWaitDur returns the -shed-wait value as a virtual-time duration. Only
// flags from RegisterOpenLoop have one.
func (f *Flags) ShedWaitDur() sim.Duration { return sim.Duration(f.ShedWait.Nanoseconds()) }

// Build constructs the sinks the parsed flags ask for: an attribution engine
// when AttribEnabled, a flight recorder when FlightEnabled. Either may come
// back nil; downstream wiring is nil-safe.
func (f *Flags) Build() (*telemetry.Attribution, *telemetry.FlightRecorder) {
	var (
		att *telemetry.Attribution
		rec *telemetry.FlightRecorder
	)
	if f.AttribEnabled() {
		att = telemetry.NewAttribution(f.SLODur(), 0)
	}
	if f.FlightEnabled() {
		rec = telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	}
	return att, rec
}

// WriteLatency writes att's JSONL dump to the -latency-out file. It is a
// no-op when the flag is unset or att is nil, and reports what it wrote on
// report (stdout-style progress line) when non-nil.
func (f *Flags) WriteLatency(att *telemetry.Attribution, report io.Writer) error {
	if *f.LatencyOut == "" || att == nil {
		return nil
	}
	out, err := os.Create(*f.LatencyOut)
	if err != nil {
		return err
	}
	if err := att.WriteJSONL(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if report != nil {
		fmt.Fprintf(report, "latency: %d accounts -> %s\n", len(att.Accounts()), *f.LatencyOut)
	}
	return nil
}

// WriteFlight writes rec's anomaly dump to the -flight-out file. It is a
// no-op when the flag is unset or rec is nil.
func (f *Flags) WriteFlight(rec *telemetry.FlightRecorder, report io.Writer) error {
	if *f.FlightOut == "" || rec == nil {
		return nil
	}
	out, err := os.Create(*f.FlightOut)
	if err != nil {
		return err
	}
	if err := rec.WriteDump(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	if report != nil {
		fmt.Fprintf(report, "flight: %d triggers, %d snapshots -> %s\n", rec.Triggers(), len(rec.Snapshots()), *f.FlightOut)
	}
	return nil
}
