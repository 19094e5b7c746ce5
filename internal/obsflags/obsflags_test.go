package obsflags

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRegisterDefaults checks the zero configuration builds nothing: no
// attribution, no recorder, and the writers are no-ops.
func TestRegisterDefaults(t *testing.T) {
	f := parse(t)
	if f.AttribEnabled() || f.FlightEnabled() || f.SLODur() != 0 {
		t.Fatal("defaults enabled observability")
	}
	att, rec := f.Build()
	if att != nil || rec != nil {
		t.Fatal("Build constructed sinks with no flags set")
	}
	var buf bytes.Buffer
	if err := f.WriteLatency(att, &buf); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFlight(rec, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("no-op writers reported: %q", buf.String())
	}
}

// TestSLOImpliesAttrib checks -slo alone turns attribution on with the SLO
// threaded through in virtual-time nanoseconds.
func TestSLOImpliesAttrib(t *testing.T) {
	f := parse(t, "-slo", "5us")
	if !f.AttribEnabled() {
		t.Fatal("-slo did not enable attribution")
	}
	if f.FlightEnabled() {
		t.Fatal("-slo enabled the flight recorder")
	}
	if f.SLODur() != sim.Duration(5*time.Microsecond) {
		t.Fatalf("SLODur = %d, want 5000", f.SLODur())
	}
	att, rec := f.Build()
	if att == nil || rec != nil {
		t.Fatalf("Build = (%v, %v), want attribution only", att, rec)
	}
	if att.SLO() != f.SLODur() {
		t.Fatalf("engine SLO = %d, want %d", att.SLO(), f.SLODur())
	}
}

func parseOpenLoop(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := RegisterOpenLoop(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestShedWait checks the -shed-wait flag converts to virtual time and
// defaults to zero (letting the open-loop server derive it from the SLO).
func TestShedWait(t *testing.T) {
	f := parseOpenLoop(t)
	if f.ShedWaitDur() != 0 {
		t.Fatalf("default ShedWaitDur = %d, want 0", f.ShedWaitDur())
	}
	f = parseOpenLoop(t, "-shed-wait", "40us")
	if f.ShedWaitDur() != sim.Duration(40*time.Microsecond) {
		t.Fatalf("ShedWaitDur = %d, want 40000", f.ShedWaitDur())
	}
	if f.AttribEnabled() || f.FlightEnabled() {
		t.Fatal("-shed-wait enabled unrelated sinks")
	}
}

// TestRegisterRejectsShedWait checks a flag set without an open-loop
// server refuses -shed-wait instead of accepting and ignoring it.
func TestRegisterRejectsShedWait(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs)
	if err := fs.Parse([]string{"-shed-wait", "1us"}); err == nil {
		t.Fatal("plain Register accepted -shed-wait")
	}
}

// TestWriteLatencyAndFlight drives the file writers end to end and checks
// the progress lines name the files and the dumps land on disk.
func TestWriteLatencyAndFlight(t *testing.T) {
	dir := t.TempDir()
	latPath := filepath.Join(dir, "lat.jsonl")
	fltPath := filepath.Join(dir, "flight.jsonl")
	f := parse(t, "-latency-out", latPath, "-flight-out", fltPath)
	if !f.AttribEnabled() || !f.FlightEnabled() {
		t.Fatal("output flags did not enable their sinks")
	}
	att, rec := f.Build()
	if att == nil || rec == nil {
		t.Fatal("Build returned nil sinks")
	}
	acct := att.Account("tenant0")
	att.Begin(acct)
	att.Charge(telemetry.CompLink, 100)
	att.End(150, 1000)
	rec.Trigger("test", 1000, 7)

	var buf bytes.Buffer
	if err := f.WriteLatency(att, &buf); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFlight(rec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "latency: 1 accounts -> "+latPath) {
		t.Fatalf("latency progress line missing: %q", out)
	}
	if !strings.Contains(out, "flight: 1 triggers, 1 snapshots -> "+fltPath) {
		t.Fatalf("flight progress line missing: %q", out)
	}
	for _, p := range []string{latPath, fltPath} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

// TestWriteErrorsSurface checks an unwritable output path comes back as an
// error instead of being swallowed.
func TestWriteErrorsSurface(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out.jsonl")
	f := parse(t, "-latency-out", bad, "-flight-out", bad)
	att, rec := f.Build()
	if err := f.WriteLatency(att, nil); err == nil {
		t.Fatal("WriteLatency swallowed create error")
	}
	if err := f.WriteFlight(rec, nil); err == nil {
		t.Fatal("WriteFlight swallowed create error")
	}
}
