package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flatflash/internal/sim"
)

func TestTracerRecordsInOrder(t *testing.T) {
	tr := NewTracer(8)
	obs := NewSink(tr, nil, nil)
	for i := 0; i < 5; i++ {
		obs.Observe(SpanAccess, TrackCPU, sim.Time(i*100), sim.Time(i*100+50), int64(i))
	}
	obs.Observe(EvCacheHit, TrackSSD, 999, 999, 42)
	spans := tr.Spans()
	if len(spans) != 6 {
		t.Fatalf("got %d spans, want 6", len(spans))
	}
	for i, s := range spans {
		if s.Seq != uint64(i) {
			t.Errorf("span %d: seq %d", i, s.Seq)
		}
	}
	last := spans[5]
	if !last.Instant || last.Kind != EvCacheHit || last.Arg != 42 || last.Start != 999 {
		t.Errorf("event span = %+v", last)
	}
	if spans[2].Dur != 50 {
		t.Errorf("dur = %d, want 50", spans[2].Dur)
	}
	if tr.Dropped() != 0 {
		t.Errorf("dropped = %d", tr.Dropped())
	}
}

func TestTracerRingOverwritesOldest(t *testing.T) {
	tr := NewTracer(4)
	obs := NewSink(tr, nil, nil)
	for i := 0; i < 10; i++ {
		obs.Observe(SpanDRAM, TrackCPU, sim.Time(i), sim.Time(i+1), int64(i))
	}
	if tr.Recorded() != 10 {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d", tr.Dropped())
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("retained %d", len(spans))
	}
	for i, s := range spans {
		if want := uint64(6 + i); s.Seq != want {
			t.Errorf("span %d: seq %d, want %d (oldest-first)", i, s.Seq, want)
		}
	}
}

func TestTracerNegativeDurationClamped(t *testing.T) {
	tr := NewTracer(4)
	obs := NewSink(tr, nil, nil)
	obs.Observe(SpanGC, TrackFlash, 100, 50, 0)
	if d := tr.Spans()[0].Dur; d != 0 {
		t.Errorf("dur = %d, want clamp to 0", d)
	}
}

func TestRegistryEpochSampling(t *testing.T) {
	r := NewRegistry(100)
	hits := 0.0
	r.RegisterGauge("hits", func() float64 { return hits })
	var ops int64
	r.RegisterRate("ops", func() int64 { return ops })
	r.Start(0)

	hits, ops = 0.25, 10
	r.Tick(150) // crosses t=100
	hits, ops = 0.5, 30
	r.Tick(450) // crosses t=200,300,400
	rows := r.Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if rows[0].T != 100 || rows[3].T != 400 {
		t.Errorf("row times %v %v", rows[0].T, rows[3].T)
	}
	if rows[0].Vals[0] != 0.25 || rows[1].Vals[0] != 0.5 {
		t.Errorf("gauge samples %v %v", rows[0].Vals[0], rows[1].Vals[0])
	}
	// First rate row: 10 ops over 100 ns = 1e8/s. Second: 20 over 100 ns.
	if rows[0].Vals[1] != 10/sim.Duration(100).Seconds() {
		t.Errorf("rate row 0 = %v", rows[0].Vals[1])
	}
	if rows[1].Vals[1] != 20/sim.Duration(100).Seconds() {
		t.Errorf("rate row 1 = %v", rows[1].Vals[1])
	}
	// Rows 2,3 saw no counter movement.
	if rows[2].Vals[1] != 0 || rows[3].Vals[1] != 0 {
		t.Errorf("quiet rate rows %v %v", rows[2].Vals[1], rows[3].Vals[1])
	}

	r.Finish(475) // partial epoch adds one row
	if len(r.Rows()) != 5 {
		t.Fatalf("after Finish: rows = %d, want 5", len(r.Rows()))
	}
	if r.Elapsed() != 475 {
		t.Errorf("elapsed = %v", r.Elapsed())
	}
}

func TestRegistryUniqueNames(t *testing.T) {
	r := NewRegistry(0)
	g := func() float64 { return 0 }
	r.RegisterGauge("x", g)
	r.RegisterGauge("x", g)
	r.RegisterRate("x", func() int64 { return 0 })
	names := r.SeriesNames()
	want := []string{"x", "x#2", "x_per_s"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %q, want %q", i, names[i], want[i])
		}
	}
}

func TestNilRegistryAndCountersAreSafe(t *testing.T) {
	var r *Registry
	r.RegisterGauge("g", func() float64 { return 1 })
	r.RegisterRate("r", func() int64 { return 1 })
	r.Add("c", 1)
	r.Start(0)
	r.Tick(100)
	r.Finish(200)
	if r.Get("c") != 0 || r.Elapsed() != 0 || r.Rows() != nil || r.SeriesNames() != nil {
		t.Error("nil registry leaked state")
	}
	if err := r.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestWriteJSONLDeterministicAndParseable(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry(100)
		v := 0.0
		r.RegisterGauge("ratio", func() float64 { return v })
		r.Start(0)
		r.Add("zebra", 3)
		r.Add("alpha", 1)
		v = 0.5
		r.Tick(250)
		r.Finish(250)
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSONL output not byte-identical across identical runs")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 4 { // epochs at 100, 200, final 250, counters
		t.Fatalf("lines = %d: %q", len(lines), a.String())
	}
	for _, l := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("bad JSONL line %q: %v", l, err)
		}
	}
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[3]), &final); err != nil {
		t.Fatal(err)
	}
	counters, ok := final["counters"].(map[string]any)
	if !ok || counters["alpha"].(float64) != 1 || counters["zebra"].(float64) != 3 {
		t.Errorf("counters line = %v", final)
	}
	// Sorted counter keys in the raw bytes.
	if strings.Index(lines[3], `"alpha"`) > strings.Index(lines[3], `"zebra"`) {
		t.Error("counters not sorted by name")
	}
}

func TestWriteChromeTraceIsValidJSON(t *testing.T) {
	tr := NewTracer(16)
	obs := NewSink(tr, nil, nil)
	obs.Observe(SpanAccess, TrackCPU, 0, 1000, 64)
	obs.Observe(SpanMMIORead, TrackPCIe, 100, 900, 0)
	obs.Observe(EvCacheHit, TrackSSD, 500, 500, 7)
	r := NewRegistry(100)
	r.RegisterGauge("g", func() float64 { return 0.5 })
	r.Start(0)
	r.Tick(150)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, r); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var sawX, sawI, sawC, sawM bool
	for _, e := range events {
		switch e["ph"] {
		case "X":
			sawX = true
			if e["name"] == "access" && e["dur"].(float64) != 1 { // 1000ns = 1us
				t.Errorf("access dur = %v us", e["dur"])
			}
		case "i":
			sawI = true
		case "C":
			sawC = true
		case "M":
			sawM = true
		}
	}
	if !sawX || !sawI || !sawC || !sawM {
		t.Errorf("missing phases: X=%v i=%v C=%v M=%v", sawX, sawI, sawC, sawM)
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(8)
	obs := NewSink(tr, nil, nil)
	obs.Observe(SpanFlashRead, TrackFlash, 10, 30, 5)
	obs.Observe(EvThreshold, TrackSSD, 20, 20, 3)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var span, ev map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &span); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if span["kind"] != "flash_read" || span["dur_ns"].(float64) != 20 {
		t.Errorf("span line = %v", span)
	}
	if ev["instant"] != true || ev["kind"] != "threshold" {
		t.Errorf("event line = %v", ev)
	}
}

func TestKindAndTrackNamesComplete(t *testing.T) {
	for k := SpanKind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	for tr := Track(0); tr < numTracks; tr++ {
		if tr.String() == "unknown" || tr.String() == "" {
			t.Errorf("track %d has no name", tr)
		}
	}
}

func TestTenantTracks(t *testing.T) {
	if got := TenantTrack(0); got != TrackCPU {
		t.Fatalf("TenantTrack(0) = %v, want TrackCPU", got)
	}
	t1, t2 := TenantTrack(1), TenantTrack(2)
	if t1 == t2 || t1 < numTracks || t2 < numTracks {
		t.Fatalf("tenant tracks not distinct dynamic tracks: %d, %d", t1, t2)
	}
	if got, want := t1.String(), "tenant1-cpu"; got != want {
		t.Fatalf("TenantTrack(1).String() = %q, want %q", got, want)
	}
	// Large ids fold onto the dynamic track space instead of colliding with
	// the fixed hardware tracks.
	if tr := TenantTrack(1000); tr < numTracks {
		t.Fatalf("TenantTrack(1000) = %d collides with fixed tracks", tr)
	}
}

func TestChromeTraceNamesTenantTracks(t *testing.T) {
	tr := NewTracer(16)
	obs := NewSink(tr, nil, nil)
	obs.Observe(SpanAccess, TenantTrack(1), 0, 10, 64)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"tenant1-cpu"`) {
		t.Fatalf("trace metadata does not name the tenant track:\n%s", buf.String())
	}
}
