package plb

import (
	"bytes"
	"testing"

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

// TestSnapshotBufferReuse exercises the slot snapshot-buffer recycling:
// back-to-back flights through the same slot must still deliver each flight's
// own data, with no bleed-through from the previous snapshot.
func TestSnapshotBufferReuse(t *testing.T) {
	p, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	lat := p.Config().PromotionLatency
	page := p.Config().PageSize
	src := make([]byte, page)
	dst := make([]byte, page)
	now := sim.Time(0)
	for flight := 0; flight < 5; flight++ {
		for i := range src {
			src[i] = byte(flight + i)
		}
		if err := p.Start(now, uint32(flight), flight, src, dst, false); err != nil {
			t.Fatal(err)
		}
		// Mutating the caller's buffer after Start must not leak into the
		// flight: the PLB snapshotted it.
		for i := range src {
			src[i] = 0xEE
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
	if avg := testing.AllocsPerRun(1000, func() {
		if p.Expired(sim.Time(1)) != nil {
			t.Fatal("unexpected completion")
		}
	}); avg != 0 {
		t.Fatalf("empty-PLB Expired allocates %.2f objects/op, want 0", avg)
	}
	page := p.Config().PageSize
	src := bytes.Repeat([]byte{1}, page)
	dst := make([]byte, page)
	if err := p.Start(sim.Time(0), 7, 3, src, dst, false); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if p.Expired(sim.Time(1)) != nil {
			t.Fatal("unexpected completion")
		}
	}); avg != 0 {
		t.Fatalf("in-flight Expired poll allocates %.2f objects/op, want 0", avg)
	}
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
// page mid-promotion, so the lookup scans and misses).
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
