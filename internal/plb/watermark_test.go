package plb

import (
	"bytes"
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Entries = 4
	return cfg
}

// TestPendingAndWatermark pins the deadline-watermark bookkeeping: Pending
// tracks Start/Expired, Expired is a no-op before the earliest deadline, and
// completing the earliest flight retargets the watermark so later flights
// still complete exactly at their own deadlines.
func TestPendingAndWatermark(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := p.Config().PromotionLatency
	page := p.Config().PageSize
	src := make([]byte, page)
	dst1 := make([]byte, page)
	dst2 := make([]byte, page)

	if p.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", p.Pending())
	}
	t0 := sim.Time(0)
	if err := p.Start(t0, 1, 10, src, dst1, false); err != nil {
		t.Fatal(err)
	}
	t1 := t0.Add(lat / 2)
	if err := p.Start(t1, 2, 11, src, dst2, false); err != nil {
		t.Fatal(err)
	}
	if p.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", p.Pending())
	}
	// Nothing can have completed yet.
	if got := p.Expired(t0.Add(lat - 1)); got != nil {
		t.Fatalf("Expired before first deadline = %v, want nil", got)
	}
	// First deadline: only the first flight completes.
	done := p.Expired(t0.Add(lat))
	if len(done) != 1 || done[0].LPN != 1 {
		t.Fatalf("Expired at first deadline = %v, want [lpn 1]", done)
	}
	if p.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", p.Pending())
	}
	// The watermark must have retargeted to the second flight's deadline.
	if got := p.Expired(t1.Add(lat - 1)); got != nil {
		t.Fatalf("Expired before second deadline = %v, want nil", got)
	}
	done = p.Expired(t1.Add(lat))
	if len(done) != 1 || done[0].LPN != 2 {
		t.Fatalf("Expired at second deadline = %v, want [lpn 2]", done)
	}
	if p.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", p.Pending())
	}
}

// TestStartCopiesSource: Start copies the source page into the frame, so a
// caller that reuses src right after Start (as the hierarchy does with the
// SSD-Cache buffer it has just freed) cannot reach the flight. Back-to-back
// flights through the same slot each deliver their own data.
func TestStartCopiesSource(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := p.Config().PromotionLatency
	page := p.Config().PageSize
	src := make([]byte, page)
	dst := make([]byte, page)
	buf := make([]byte, 8)
	now := sim.Time(0)
	for flight := 0; flight < 5; flight++ {
		for i := range src {
			src[i] = byte(flight + i)
		}
		if err := p.Start(now, uint32(flight), flight, src, dst, false); err != nil {
			t.Fatal(err)
		}
		for i := range src {
			src[i] = 0xEE
		}
		// A load before any line has arrived is served from the SSD side
		// with the bytes src held at Start.
		off := page - len(buf)
		if r := p.Access(now, uint32(flight), off, buf, false); r != RouteSSD {
			t.Fatalf("flight %d: early load routed %v, want RouteSSD", flight, r)
		}
		if buf[0] != byte(flight+off) {
			t.Fatalf("flight %d: early load read %#x, want %#x", flight, buf[0], byte(flight+off))
		}
		now = now.Add(lat)
		done := p.Expired(now)
		if len(done) != 1 {
			t.Fatalf("flight %d: completions = %v", flight, done)
		}
		for i := range dst {
			if dst[i] != byte(flight+i) {
				t.Fatalf("flight %d: dst[%d] = %#x, want %#x", flight, i, dst[i], byte(flight+i))
			}
		}
	}
}

// TestFlightZeroAlloc: a whole flight — Start, a load of every line as the
// copy progresses, and the Expired poll that completes it — allocates
// nothing once the completion scratch exists.
func TestFlightZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Time
	flight := newFlight(t, p)
	alloctest.Exact(t, 1000, 0, func() {
		now = flight(now)
	})
}

// TestExpiredPollZeroAlloc is the hot-path budget: the per-access Expired
// poll must not allocate, whether the PLB is empty or has flights whose
// deadlines are still in the future.
func TestExpiredPollZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	alloctest.Exact(t, 1000, 0, func() {
		if p.Expired(sim.Time(1)) != nil {
			t.Fatal("unexpected completion")
		}
	})
	page := p.Config().PageSize
	src := bytes.Repeat([]byte{1}, page)
	dst := make([]byte, page)
	if err := p.Start(sim.Time(0), 7, 3, src, dst, false); err != nil {
		t.Fatal(err)
	}
	alloctest.Exact(t, 1000, 0, func() {
		if p.Expired(sim.Time(1)) != nil {
			t.Fatal("unexpected completion")
		}
	})
}

// TestIdleAccessCountsLookup: with nothing in flight, Access routes nowhere
// without scanning the entries, but the lookup still counts toward the hit
// ratio's denominator.
func TestIdleAccessCountsLookup(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for i := 0; i < 3; i++ {
		if r := p.Access(sim.Time(i), uint32(i), 0, buf, i%2 == 0); r != RouteNone {
			t.Fatalf("idle access %d routed %v, want RouteNone", i, r)
		}
	}
	if p.lookups != 3 || p.routed != 0 {
		t.Fatalf("lookups=%d routed=%d, want 3/0", p.lookups, p.routed)
	}
	if p.InFlight(0) {
		t.Fatal("idle PLB reports a flight")
	}
}

// BenchmarkPLBAccess times one 8 B load through Access at the default 64
// entries: idle (nothing in flight, the common case) and inflight (one other
// page mid-promotion, so the lookup visits its one occupied slot and
// misses).
func BenchmarkPLBAccess(b *testing.B) {
	for _, inflight := range []bool{false, true} {
		name := "idle"
		if inflight {
			name = "inflight"
		}
		b.Run(name, func(b *testing.B) {
			p, err := New(DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if inflight {
				page := p.Config().PageSize
				if err := p.Start(0, 1, 0, make([]byte, page), make([]byte, page), false); err != nil {
					b.Fatal(err)
				}
			}
			buf := make([]byte, 8)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.Access(0, 2, 64, buf, false) != RouteNone {
					b.Fatal("access to a page not in flight was routed")
				}
			}
		})
	}
}

// newFlight returns a function that runs one whole flight through p from
// time now and returns the time it completed: Start, a load of every line,
// spread evenly over the flight, and the Expired poll at the deadline.
func newFlight(tb testing.TB, p *PLB) func(now sim.Time) sim.Time {
	cfg := p.Config()
	src := bytes.Repeat([]byte{1}, cfg.PageSize)
	dst := make([]byte, cfg.PageSize)
	buf := make([]byte, cfg.CacheLineSize)
	lines := cfg.PageSize / cfg.CacheLineSize
	step := cfg.PromotionLatency / sim.Duration(lines)
	return func(now sim.Time) sim.Time {
		if err := p.Start(now, 1, 0, src, dst, false); err != nil {
			tb.Fatal(err)
		}
		for line := 0; line < lines; line++ {
			if p.Access(now.Add(sim.Duration(line)*step), 1, line*cfg.CacheLineSize, buf, false) == RouteNone {
				tb.Fatal("load of an in-flight page not routed")
			}
		}
		now = now.Add(cfg.PromotionLatency)
		if len(p.Expired(now)) != 1 {
			tb.Fatal("flight did not complete at its deadline")
		}
		return now
	}
}

// BenchmarkPromotionFlight times one whole flight at the default geometry
// (64 lines of 64 B): Start, 64 line loads spread over the flight, then the
// Expired poll that completes it.
func BenchmarkPromotionFlight(b *testing.B) {
	p, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	flight := newFlight(b, p)
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = flight(now)
	}
}
