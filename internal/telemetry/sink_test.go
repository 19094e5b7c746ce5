package telemetry

import (
	"reflect"
	"testing"

	"flatflash/internal/sim"
)

func newFullSink() (*Sink, *Tracer, *FlightRecorder, *Attribution) {
	tr := NewTracer(64)
	fr := NewFlightRecorder(64, 4)
	att := NewAttribution(0, 0)
	return NewSink(tr, fr, att), tr, fr, att
}

// TestNewSinkNilWhenEmpty: with no consumer the sink is the nil, disabled
// sink.
func TestNewSinkNilWhenEmpty(t *testing.T) {
	if s := NewSink(nil, nil, nil); s != nil {
		t.Fatalf("NewSink(nil, nil, nil) = %p, want nil", s)
	}
	if NewSink(nil, nil, NewAttribution(0, 0)) == nil {
		t.Fatal("a sink with only an attribution engine came back nil")
	}
}

// TestNilSinkIsNoOp: the nil sink is the disabled configuration, and call
// sites report through it unguarded, so every exported method — found by
// reflection, so a new one is covered too — must be a no-op on it.
func TestNilSinkIsNoOp(t *testing.T) {
	var s *Sink
	typ := reflect.TypeOf(s)
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		args := []reflect.Value{reflect.ValueOf(s)}
		for j := 1; j < m.Type.NumIn(); j++ {
			args = append(args, reflect.Zero(m.Type.In(j)))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(*Sink)(nil).%s panicked: %v", m.Name, r)
				}
			}()
			m.Func.Call(args)
		}()
	}
	for k := SpanKind(0); k < numKinds; k++ {
		s.Observe(k, TrackCPU, 100, 200, 1)
	}
}

// TestSinkObserveFansOut: one Observe records a traced span in the tracer
// and the flight ring, records an event kind as an instant at start, and
// charges end-start to the kind's component.
func TestSinkObserveFansOut(t *testing.T) {
	s, tr, fr, att := newFullSink()
	acct := att.Account("tenant0")
	att.Begin(acct)
	s.Observe(SpanMMIORead, TrackPCIe, 100, 900, 1)
	s.Observe(EvCacheHit, TrackSSD, 1000, 1050, 7)
	att.End(2000, 2000)

	spans := tr.Spans()
	if len(spans) != 2 || fr.ring.Recorded() != 2 {
		t.Fatalf("tracer kept %d spans, flight ring %d; want 2 each", len(spans), fr.ring.Recorded())
	}
	if sp := spans[0]; sp.Instant || sp.Kind != SpanMMIORead || sp.Start != 100 || sp.Dur != 800 || sp.Arg != 1 {
		t.Fatalf("span = %+v", sp)
	}
	if ev := spans[1]; !ev.Instant || ev.Kind != EvCacheHit || ev.Start != 1000 || ev.Dur != 0 || ev.Arg != 7 {
		t.Fatalf("event = %+v", ev)
	}
	if got := acct.Sum(CompLink); got != 800 {
		t.Fatalf("link charge = %d, want 800", got)
	}
	if got := acct.Sum(CompCacheFill); got != 50 {
		t.Fatalf("cache-hit charge = %d, want 50", got)
	}
}

// TestSinkFaultTriggersFlight: a fault event self-triggers a flight
// snapshot whose window includes the fault.
func TestSinkFaultTriggersFlight(t *testing.T) {
	s, _, fr, _ := newFullSink()
	s.Observe(SpanDRAM, TrackCPU, 0, 10, 0)
	s.Observe(EvFaultNAND, TrackFlash, 20, 20, 1)
	snaps := fr.Snapshots()
	if fr.Triggers() != 1 || len(snaps) != 1 || snaps[0].Reason != "fault_nand" || len(snaps[0].Spans) != 2 {
		t.Fatalf("triggers=%d snapshots=%+v", fr.Triggers(), snaps)
	}
}

// TestUntracedKindsNeverRecorded: a charge-only kind reaches the
// attribution engine but never the tracer or the flight ring.
func TestUntracedKindsNeverRecorded(t *testing.T) {
	untraced := 0
	for k := SpanKind(0); k < numKinds; k++ {
		if kinds[k].traced {
			continue
		}
		untraced++
		s, tr, fr, att := newFullSink()
		s.Observe(k, TrackFlash, 0, 100, 1)
		if tr.Recorded() != 0 || fr.ring.Recorded() != 0 {
			t.Errorf("untraced kind %v recorded: tracer %d, flight ring %d", k, tr.Recorded(), fr.ring.Recorded())
		}
		if c := kinds[k].comp; c == noComponent || att.Background(c) != 100 {
			t.Errorf("untraced kind %v charged nothing", k)
		}
	}
	if untraced == 0 {
		t.Fatal("no charge-only kinds in the table")
	}
}

// TestEveryComponentCharged: every component but the software residual is
// charged by at least one kind; the residual is computed, never charged.
func TestEveryComponentCharged(t *testing.T) {
	var charged [NumComponents]bool
	for k := SpanKind(0); k < numKinds; k++ {
		if c := kinds[k].comp; c != noComponent {
			charged[c] = true
		}
	}
	for c := Component(0); c < NumComponents; c++ {
		if want := c != CompSoftware; charged[c] != want {
			t.Errorf("component %v: charged by a kind = %v, want %v", c, charged[c], want)
		}
	}
}

// TestSinkObserveZeroAlloc: with every consumer attached, Observe stays
// allocation-free for spans, events and charge-only kinds.
func TestSinkObserveZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	s, _, _, att := newFullSink()
	acct := att.Account("tenant0")
	att.Begin(acct)
	if avg := testing.AllocsPerRun(1000, func() {
		s.Observe(SpanDRAM, TrackCPU, 0, 50, 3)
		s.Observe(EvCacheHit, TrackSSD, 50, 60, 4)
		s.Observe(ChargeNAND, TrackFlash, 60, 90, 5)
	}); avg != 0 {
		t.Fatalf("Observe with all consumers allocates %.1f objects/op, want 0", avg)
	}
}

// BenchmarkSinkObserve measures one Observe of a traced, charged kind (the
// DRAM hit) with every consumer attached, and with attribution only (the
// configuration attributed runs use).
func BenchmarkSinkObserve(b *testing.B) {
	att := NewAttribution(0, 0)
	acct := att.Account("tenant0")
	for _, bc := range []struct {
		name string
		sink *Sink
	}{
		{"all", NewSink(NewTracer(0), NewFlightRecorder(0, 0), att)},
		{"attribution", NewSink(nil, nil, att)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			att.Begin(acct)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.sink.Observe(SpanDRAM, TrackCPU, sim.Time(i), sim.Time(i+50), int64(i))
			}
		})
	}
}
