package obsflags

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
)

const all = Trace | Metrics | Latency | Flight | SLO | ShedWait | MapCache

func parse(t *testing.T, s Set, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, s)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRegisterDefaults checks the zero configuration builds nothing: no
// tracer, registry, attribution or recorder, and every writer is a no-op.
func TestRegisterDefaults(t *testing.T) {
	f := parse(t, all)
	if f.AttribEnabled() || f.SLODur() != 0 || f.ShedWaitDur() != 0 {
		t.Fatal("defaults enabled observability")
	}
	f.Build(false)
	if f.Tracer != nil || f.Registry != nil || f.Attribution != nil || f.Recorder != nil {
		t.Fatalf("Build constructed consumers with no flags set: %+v", f)
	}
	var buf bytes.Buffer
	for _, write := range []func(io.Writer) error{f.WriteTrace, f.WriteMetrics, f.WriteFlight,
		func(w io.Writer) error { return f.WriteLatency(w, f.Attribution) }} {
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("no-op writers reported: %q", buf.String())
	}
	cfg := core.DefaultConfig(16<<20, 1<<20)
	if got := f.MapDevice(cfg); got != cfg {
		t.Fatal("MapDevice changed the config without -map-cache")
	}
}

// TestSLOImpliesAttrib checks -slo alone turns attribution on with the SLO
// threaded through in virtual-time nanoseconds.
func TestSLOImpliesAttrib(t *testing.T) {
	f := parse(t, all, "-slo", "5us")
	if !f.AttribEnabled() {
		t.Fatal("-slo did not enable attribution")
	}
	if f.SLODur() != sim.Duration(5*time.Microsecond) {
		t.Fatalf("SLODur = %d, want 5000", f.SLODur())
	}
	f.Build(false)
	if f.Attribution == nil || f.Recorder != nil || f.Tracer != nil || f.Registry != nil {
		t.Fatalf("Build = %+v, want attribution only", f)
	}
	if f.Attribution.SLO() != f.SLODur() {
		t.Fatalf("engine SLO = %d, want %d", f.Attribution.SLO(), f.SLODur())
	}
	// A run whose servers attribute on their own builds only the recorder.
	g := parse(t, all, "-slo", "5us", "-flight-out", "f.jsonl")
	g.BuildRecorder()
	if !g.AttribEnabled() || g.Attribution != nil || g.Recorder == nil {
		t.Fatalf("BuildRecorder = %+v, want a flight recorder only", g)
	}
}

// TestShedWait checks the -shed-wait flag converts to virtual time and
// defaults to zero (letting the open-loop server derive it from the SLO).
func TestShedWait(t *testing.T) {
	f := parse(t, ShedWait)
	if f.ShedWaitDur() != 0 {
		t.Fatalf("default ShedWaitDur = %d, want 0", f.ShedWaitDur())
	}
	f = parse(t, ShedWait, "-shed-wait", "40us")
	if f.ShedWaitDur() != sim.Duration(40*time.Microsecond) {
		t.Fatalf("ShedWaitDur = %d, want 40000", f.ShedWaitDur())
	}
	if f.AttribEnabled() {
		t.Fatal("-shed-wait enabled attribution")
	}
}

// TestRegisterRejectsShedWait checks a flag set without an open-loop server
// refuses -shed-wait instead of accepting and ignoring it, and that every
// group declares exactly its own flags.
func TestRegisterRejectsShedWait(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Register(fs, all&^ShedWait)
	if err := fs.Parse([]string{"-shed-wait", "1us"}); err == nil {
		t.Fatal("a flag set without ShedWait accepted -shed-wait")
	}
	for group, want := range map[Set][]string{
		Trace:    {"trace-out"},
		Metrics:  {"metrics-epoch", "metrics-out"},
		Latency:  {"latency-out"},
		Flight:   {"flight-out"},
		SLO:      {"slo"},
		ShedWait: {"shed-wait"},
		MapCache: {"map-cache"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		Register(fs, group)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
		if !slices.Equal(got, want) {
			t.Errorf("group %d declares %q, want %q", group, got, want)
		}
	}
}

// TestWriteLatencyAndFlight drives the file writers end to end and checks
// the budget table and progress lines reach the report writer, the dumps
// land on disk, nil engines are skipped, and a nil report writer prints
// nothing but still writes the dump.
func TestWriteLatencyAndFlight(t *testing.T) {
	dir := t.TempDir()
	latPath := filepath.Join(dir, "lat.jsonl")
	fltPath := filepath.Join(dir, "flight.jsonl")
	f := parse(t, all, "-latency-out", latPath, "-flight-out", fltPath)
	if !f.AttribEnabled() {
		t.Fatal("-latency-out did not enable attribution")
	}
	f.Build(false)
	if f.Attribution == nil || f.Recorder == nil {
		t.Fatal("Build returned nil consumers")
	}
	att := f.Attribution
	acct := att.Account("tenant0")
	att.Begin(acct)
	att.Charge(telemetry.CompLink, 100)
	att.End(150, 1000)
	f.Recorder.Trigger("test", 1000, 7)

	var buf bytes.Buffer
	if err := f.WriteLatency(&buf, nil, att); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"latency budget", "latency: 1 accounts -> " + latPath,
		"flight: 1 triggers, 1 snapshots -> " + fltPath} {
		if !strings.Contains(out, want) {
			t.Fatalf("report lacks %q: %q", want, out)
		}
	}
	one, err := os.ReadFile(latPath)
	if err != nil || len(one) == 0 {
		t.Fatalf("latency dump %q: %v", one, err)
	}
	if data, err := os.ReadFile(fltPath); err != nil || len(data) == 0 {
		t.Fatalf("flight dump %q: %v", data, err)
	}

	// Two engines concatenate; a nil report writer prints nothing.
	if err := f.WriteLatency(nil, att, nil, att); err != nil {
		t.Fatal(err)
	}
	two, err := os.ReadFile(latPath)
	if err != nil || string(two) != string(one)+string(one) {
		t.Fatalf("two-engine dump is not the concatenation: %q (%v)", two, err)
	}
}

// TestWriteTraceAndMetrics checks the span trace is one JSON document, the
// progress lines name the files, and Build(true) keeps a registry without
// either dump.
func TestWriteTraceAndMetrics(t *testing.T) {
	dir := t.TempDir()
	trPath := filepath.Join(dir, "t.json")
	mPath := filepath.Join(dir, "m.jsonl")
	f := parse(t, all, "-trace-out", trPath, "-metrics-out", mPath, "-metrics-epoch", "100us")
	f.Build(false)
	if f.Tracer == nil || f.Registry == nil {
		t.Fatal("trace and metrics dumps built no tracer or registry")
	}
	var buf bytes.Buffer
	if err := f.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "trace: 0 spans -> " + trPath + " (load in ui.perfetto.dev)\nmetrics: 0 epochs -> " + mPath + "\n"; buf.String() != want {
		t.Fatalf("progress lines = %q, want %q", buf.String(), want)
	}
	data, err := os.ReadFile(trPath)
	if err != nil || !json.Valid(data) {
		t.Fatalf("trace is not one JSON document: %q (%v)", data, err)
	}
	if _, err := os.Stat(mPath); err != nil {
		t.Fatal(err)
	}

	g := parse(t, Metrics)
	g.Build(true)
	if g.Registry == nil || g.Tracer != nil {
		t.Fatalf("Build(true) = %+v, want a registry only", g)
	}
	if got := g.MapDevice(core.DefaultConfig(16<<20, 1<<20)); got.MapCachePages != 0 {
		t.Fatal("MapDevice demand-paged the map without -map-cache")
	}
	h := parse(t, MapCache, "-map-cache", "4")
	if got := h.MapDevice(core.DefaultConfig(16<<20, 1<<20)); got.MapCachePages != 4 {
		t.Fatalf("MapDevice with -map-cache 4 = %d pages", got.MapCachePages)
	}
}

// TestWriteTraceWarnsOnOverflow checks the trace's progress line is followed
// by a warning once the span ring has dropped its oldest spans, and only
// then.
func TestWriteTraceWarnsOnOverflow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.json")
	f := parse(t, all, "-trace-out", path)
	f.Build(false)
	f.Tracer = telemetry.NewTracer(4)
	sink := telemetry.NewSink(f.Tracer, nil, nil)
	progress := func(spans int) string {
		for i := 0; i < spans; i++ {
			sink.Observe(telemetry.SpanAccess, telemetry.TrackCPU, 0, 10, 0)
		}
		var buf bytes.Buffer
		if err := f.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	line := func(spans int) string {
		return fmt.Sprintf("trace: %d spans -> %s (load in ui.perfetto.dev)\n", spans, path)
	}
	if got, want := progress(4), line(4); got != want {
		t.Fatalf("full ring: progress = %q, want %q", got, want)
	}
	if got, want := progress(3), line(7)+"trace: ring overflowed, oldest 3 spans dropped\n"; got != want {
		t.Fatalf("overflowed ring: progress = %q, want %q", got, want)
	}
}

// TestWriteErrorsSurface checks an unwritable output path comes back as an
// error from every writer instead of being swallowed.
func TestWriteErrorsSurface(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no-such-dir", "out")
	f := parse(t, all, "-trace-out", bad, "-metrics-out", bad, "-latency-out", bad, "-flight-out", bad)
	f.Build(false)
	if err := f.WriteLatency(nil, f.Attribution); err == nil {
		t.Fatal("WriteLatency swallowed create error")
	}
	for name, write := range map[string]func(io.Writer) error{
		"WriteTrace": f.WriteTrace, "WriteMetrics": f.WriteMetrics, "WriteFlight": f.WriteFlight,
	} {
		if err := write(io.Discard); err == nil {
			t.Fatalf("%s swallowed create error", name)
		}
	}
}
