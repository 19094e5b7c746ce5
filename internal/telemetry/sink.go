package telemetry

import "flatflash/internal/sim"

// Sink is the one instrumentation seam of a run: every simulator layer
// holds a *Sink and reports each interval once, through Observe. The sink
// fans that one event out to the run's optional consumers — a Tracer, a
// FlightRecorder ring and an Attribution engine — as the per-kind table
// directs: traced kinds are recorded by the tracer and flight ring, and
// every kind with a component charges end-start to it.
//
// A nil *Sink is the disabled configuration, and every method is a no-op
// on it. Observe inlines, so instrumentation that is off costs one pointer
// comparison per site; scripts/ci.sh checks that it still inlines.
type Sink struct {
	tr  *Tracer
	fr  *FlightRecorder
	att *Attribution

	// Per-kind bit masks, fixed at construction: traces has bit k set when
	// kind k is traced and a tracer or flight ring is attached; live when k
	// has any work here (traces, or it charges and an attribution engine is
	// attached). Observe tests live before calling out.
	traces, live uint64
}

// Every kind needs a bit in the Sink masks.
var _ [64 - numKinds]struct{}

// NewSink returns a sink over the given consumers, any of which may be nil.
// With all three nil it returns nil, the disabled sink.
func NewSink(tr *Tracer, fr *FlightRecorder, att *Attribution) *Sink {
	if tr == nil && fr == nil && att == nil {
		return nil
	}
	s := &Sink{tr: tr, fr: fr, att: att}
	for k, info := range kinds {
		if info.traced && (tr != nil || fr != nil) {
			s.traces |= 1 << k
		}
		if info.comp != noComponent && att != nil {
			s.live |= 1 << k
		}
	}
	s.live |= s.traces
	return s
}

// Observe reports one interval [start, end] of kind k on track; arg is the
// kind-specific identifier (LPN, VPN, frame, byte count...). Traced kinds
// are recorded by the tracer and flight ring — event kinds as instants at
// start, and fault events trigger a flight snapshot. A kind with a
// component charges end-start to it. Allocation-free (flight snapshots
// excepted); it inlines into the call site and calls out only when k has
// work for this sink's consumers. A nil sink observes nothing.
func (s *Sink) Observe(k SpanKind, track Track, start, end sim.Time, arg int64) {
	if s != nil && s.live&(1<<k) != 0 {
		s.observe(k, track, start, end, arg)
	}
}

func (s *Sink) observe(k SpanKind, track Track, start, end sim.Time, arg int64) {
	if s.traces&(1<<k) != 0 {
		s.record(k, track, start, end, arg)
	}
	if c := kinds[k].comp; c != noComponent {
		s.att.Charge(c, end.Sub(start))
	}
}

// record hands a traced kind to the tracer and the flight ring (an end
// before start is clamped to start). A fault event then triggers a flight
// snapshot, so the dump window includes the fault itself.
func (s *Sink) record(k SpanKind, track Track, start, end sim.Time, arg int64) {
	sp := Span{Kind: k, Track: track, Instant: k >= EvCacheHit, Start: start, Arg: arg}
	if !sp.Instant && end.After(start) {
		sp.Dur = end.Sub(start)
	}
	if s.tr != nil {
		s.tr.record(sp)
	}
	if s.fr != nil {
		s.fr.ring.record(sp)
		if k.IsFault() {
			s.fr.Trigger(k.String(), start, arg)
		}
	}
}

// Suspend routes the attribution's charges to the background account until
// the matching Resume (see Attribution.Suspend).
func (s *Sink) Suspend() {
	if s == nil {
		return
	}
	//lint:ignore attribwindow forwards one half of the caller's Suspend/Resume pair
	s.att.Suspend()
}

// Resume undoes one Suspend.
func (s *Sink) Resume() {
	if s != nil {
		s.att.Resume()
	}
}
