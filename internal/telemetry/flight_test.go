package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"flatflash/internal/sim"
)

// fillRecorder drives a deterministic span/event stream into a fresh
// recorder, including a fault event that must self-trigger.
func fillRecorder(capacity, maxSnaps int) *FlightRecorder {
	r := NewFlightRecorder(capacity, maxSnaps)
	s := NewSink(nil, r, nil)
	for i := 0; i < 20; i++ {
		at := sim.Time(i * 100)
		s.Observe(SpanMMIORead, TrackPCIe, at, at.Add(50), int64(i))
		s.Observe(EvCacheHit, TrackSSD, at, at, int64(i))
	}
	s.Observe(EvFaultCrash, TrackFlash, 5000, 5000, 1) // self-triggers
	r.Trigger("invariant", 6000, 42)
	return r
}

// TestFlightDumpByteIdentical checks the flight-recorder contract: two
// identical (same-seed) runs dump byte-identical files.
func TestFlightDumpByteIdentical(t *testing.T) {
	var d1, d2 bytes.Buffer
	if err := fillRecorder(8, 4).WriteDump(&d1); err != nil {
		t.Fatal(err)
	}
	if err := fillRecorder(8, 4).WriteDump(&d2); err != nil {
		t.Fatal(err)
	}
	if d1.Len() == 0 {
		t.Fatal("empty dump")
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Fatal("same-seed flight dumps differ")
	}
}

// TestFlightDumpParses checks every dump line is valid JSON and the header
// and summary records carry the expected fields.
func TestFlightDumpParses(t *testing.T) {
	var buf bytes.Buffer
	r := fillRecorder(8, 4)
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	var anomalies int
	for i, ln := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(ln), &obj); err != nil {
			t.Fatalf("line %d not JSON: %v\n%s", i+1, err, ln)
		}
		if _, ok := obj["anomaly"]; ok {
			anomalies++
		}
	}
	if anomalies != 2 {
		t.Fatalf("dump has %d anomaly headers, want 2 (fault + invariant)", anomalies)
	}
	var summary map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
		t.Fatal(err)
	}
	if summary["triggers"].(float64) != 2 || summary["snapshots"].(float64) != 2 {
		t.Fatalf("summary = %v, want triggers=2 snapshots=2", summary)
	}
}

// TestFlightRingBoundsWindow checks the pre-anomaly window is capped at the
// ring capacity (oldest spans dropped) and the snapshot cap stops copies but
// not the trigger count.
func TestFlightRingBoundsWindow(t *testing.T) {
	r := NewFlightRecorder(4, 2)
	s := NewSink(nil, r, nil)
	for i := 0; i < 10; i++ {
		s.Observe(SpanMMIORead, TrackPCIe, sim.Time(i), sim.Time(i+1), int64(i))
	}
	r.Trigger("one", 100, 0)
	r.Trigger("two", 200, 0)
	r.Trigger("three", 300, 0) // over the snapshot cap
	if r.Triggers() != 3 {
		t.Fatalf("triggers = %d, want 3", r.Triggers())
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want cap 2", len(snaps))
	}
	if len(snaps[0].Spans) != 4 {
		t.Fatalf("window = %d spans, want ring capacity 4", len(snaps[0].Spans))
	}
	// Oldest-first, and only the most recent capacity spans survive.
	if snaps[0].Spans[0].Arg != 6 || snaps[0].Spans[3].Arg != 9 {
		t.Fatalf("window args = %d..%d, want 6..9", snaps[0].Spans[0].Arg, snaps[0].Spans[3].Arg)
	}
}

// TestFlightNilSafe drives the nil-receiver surface (Trigger on a nil
// recorder is the un-instrumented configuration).
func TestFlightNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Trigger("x", 0, 0)
	if r.Triggers() != 0 || r.Snapshots() != nil {
		t.Fatal("nil recorder leaked state")
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil WriteDump wrote output")
	}
}

// TestFaultKindRange pins the IsFault window to exactly the fault-event
// kinds, so a new span kind cannot silently become an anomaly trigger.
func TestFaultKindRange(t *testing.T) {
	for k := SpanKind(0); k < numKinds; k++ {
		name := k.String()
		isFaultName := strings.HasPrefix(name, "fault_")
		if k.IsFault() != isFaultName {
			t.Fatalf("kind %q: IsFault=%v but name prefix says %v", name, k.IsFault(), isFaultName)
		}
	}
}
