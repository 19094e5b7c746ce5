package telemetry

import (
	"bufio"
	"fmt"
	"io"

	"flatflash/internal/sim"
)

// IsFault reports whether k is a fault-engine event kind. The flight
// recorder treats every fault event as an anomaly trigger.
func (k SpanKind) IsFault() bool {
	return k >= EvFaultCrash && k <= EvFaultBattery
}

// Default flight-recorder sizing: the ring keeps the most recent spans
// leading up to an anomaly, and the snapshot cap bounds memory when a run
// anomalies repeatedly (the trigger count keeps counting past it).
const (
	DefaultFlightCapacity  = 4096
	DefaultFlightSnapshots = 8
)

// FlightSnapshot is one captured anomaly: the trigger's reason, virtual
// time, kind-specific argument, and a copy of the span ring at that instant
// (the pre-anomaly window, oldest first).
type FlightSnapshot struct {
	Reason string
	At     sim.Time
	Arg    int64
	Spans  []Span
}

// FlightRecorder keeps a bounded ring of the most recent spans and, on an
// anomaly trigger, snapshots the ring so the pre-anomaly window can be dumped
// for postmortem analysis. A Sink feeds it every traced span alongside the
// run's Tracer. Triggers come from three sources: fault-engine events (as
// the sink records them), epoch-boundary p99-over-SLO checks
// (Attribution), and invariant-check failures after recovery (core). All
// timestamps are virtual, so same-seed runs dump byte-identical files.
//
// Trigger, Triggers, Snapshots and WriteDump are nil-receiver safe.
type FlightRecorder struct {
	ring *Tracer

	snaps    []FlightSnapshot
	maxSnaps int
	triggers int64
}

// NewFlightRecorder returns a recorder keeping the last capacity spans
// (DefaultFlightCapacity if <= 0) and at most maxSnapshots anomaly captures
// (DefaultFlightSnapshots if <= 0).
func NewFlightRecorder(capacity, maxSnapshots int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	if maxSnapshots <= 0 {
		maxSnapshots = DefaultFlightSnapshots
	}
	return &FlightRecorder{ring: NewTracer(capacity), maxSnaps: maxSnapshots}
}

// Trigger records an anomaly: the trigger count always increments, and up to
// the snapshot cap the current ring contents are copied as the pre-anomaly
// window. Nil-safe no-op, so un-instrumented paths can trigger
// unconditionally on a concrete *FlightRecorder.
func (r *FlightRecorder) Trigger(reason string, at sim.Time, arg int64) {
	if r == nil {
		return
	}
	r.triggers++
	if len(r.snaps) >= r.maxSnaps {
		return
	}
	r.snaps = append(r.snaps, FlightSnapshot{
		Reason: reason,
		At:     at,
		Arg:    arg,
		Spans:  r.ring.Spans(),
	})
}

// Triggers returns how many anomalies fired (including ones past the
// snapshot cap).
func (r *FlightRecorder) Triggers() int64 {
	if r == nil {
		return 0
	}
	return r.triggers
}

// Snapshots returns the captured anomalies in trigger order.
func (r *FlightRecorder) Snapshots() []FlightSnapshot {
	if r == nil {
		return nil
	}
	return r.snaps
}

// WriteDump writes the captured anomalies as JSON Lines: one header object
// per anomaly ({"anomaly":...,"t_ns":...,"arg":...,"spans":N}) followed by
// one object per span in the pre-anomaly window, and a final summary object
// with the total trigger and snapshot counts. All values derive from virtual
// time and the seeded simulation, so same-seed runs produce byte-identical
// dumps. Nil-safe no-op.
func (r *FlightRecorder) WriteDump(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, snap := range r.snaps {
		fmt.Fprintf(bw, `{"anomaly":"%s","t_ns":%d,"arg":%d,"spans":%d}`+"\n",
			snap.Reason, int64(snap.At), snap.Arg, len(snap.Spans))
		for _, s := range snap.Spans {
			instant := 0
			if s.Instant {
				instant = 1
			}
			fmt.Fprintf(bw, `{"seq":%d,"kind":"%s","track":"%s","start_ns":%d,"dur_ns":%d,"instant":%d,"arg":%d}`+"\n",
				s.Seq, s.Kind.String(), s.Track.String(), int64(s.Start), int64(s.Dur), instant, s.Arg)
		}
	}
	fmt.Fprintf(bw, `{"triggers":%d,"snapshots":%d,"recorded":%d,"dropped":%d}`+"\n",
		r.triggers, len(r.snaps), r.ring.Recorded(), r.ring.Dropped())
	return bw.Flush()
}
