package plb

import (
	"bytes"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

func testConfig() Config {
	c := DefaultConfig()
	c.Entries = 4
	c.PageSize = 256
	c.CacheLineSize = 64 // 4 lines per page
	c.PromotionLatency = sim.Micros(12.1)
	return c
}

func mkPage(fill byte, n int) []byte { return bytes.Repeat([]byte{fill}, n) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Entries: 0, PageSize: 256, CacheLineSize: 64, PromotionLatency: 1},
		{Entries: 4, PageSize: 0, CacheLineSize: 64, PromotionLatency: 1},
		{Entries: 4, PageSize: 100, CacheLineSize: 64, PromotionLatency: 1},
		{Entries: 4, PageSize: 8192, CacheLineSize: 64, PromotionLatency: 1}, // >64 lines
		{Entries: 4, PageSize: 256, CacheLineSize: 64, PromotionLatency: 0},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := New(c); err == nil {
			t.Errorf("case %d: New accepted", i)
		}
	}
}

func TestStartErrors(t *testing.T) {
	p, _ := New(testConfig())
	src, dst := mkPage(1, 256), mkPage(0, 256)
	if err := p.Start(0, 1, 0, mkPage(0, 10), dst, false); err != ErrBadBuffer {
		t.Fatalf("err = %v", err)
	}
	if err := p.Start(0, 1, 0, src, dst, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(0, 1, 1, src, mkPage(0, 256), false); err != ErrInFlight {
		t.Fatalf("double start err = %v", err)
	}
	for i := uint32(2); i <= 4; i++ {
		if err := p.Start(0, i, int(i), src, mkPage(0, 256), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Start(0, 9, 9, src, mkPage(0, 256), false); err != ErrFull {
		t.Fatalf("full err = %v", err)
	}
	if p.Pending() != 4 {
		t.Fatalf("pending = %d", p.Pending())
	}
}

func TestCompletionCopiesWholePage(t *testing.T) {
	p, _ := New(testConfig())
	src, dst := mkPage(0xCC, 256), mkPage(0, 256)
	p.Start(0, 7, 3, src, dst, false)
	if !p.InFlight(7) {
		t.Fatal("not in flight")
	}
	// Before the deadline nothing completes.
	if cs := p.Expired(sim.Time(sim.Micros(5))); len(cs) != 0 {
		t.Fatalf("early completion: %v", cs)
	}
	cs := p.Expired(sim.Time(sim.Micros(13)))
	if len(cs) != 1 || cs[0].LPN != 7 || cs[0].Frame != 3 {
		t.Fatalf("completions = %v", cs)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("destination frame incomplete after completion")
	}
	if p.InFlight(7) {
		t.Fatal("still in flight after completion")
	}
	started, completed, _, _ := p.Stats()
	if started != 1 || completed != 1 {
		t.Fatalf("stats = %d/%d", started, completed)
	}
}

// Figure 4b: a CPU store during the flight is redirected to DRAM, its
// Copied-CL bit set, and the inbound SSD copy of that line is dropped —
// the final page must contain the CPU's data.
func TestStoreDuringPromotionWins(t *testing.T) {
	p, _ := New(testConfig())
	src, dst := mkPage(0x11, 256), mkPage(0, 256)
	p.Start(0, 7, 0, src, dst, false)
	// Store to the LAST line (index 3), which the background copy reaches
	// only near the deadline — the store happens first.
	store := mkPage(0xEE, 64)
	route := p.Access(sim.Time(sim.Micros(1)), 7, 192, store, true)
	if route != RouteDRAM {
		t.Fatalf("store route = %v, want DRAM", route)
	}
	// Read it back immediately: served from DRAM with the stored data.
	got := make([]byte, 64)
	if r := p.Access(sim.Time(sim.Micros(1)), 7, 192, got, false); r != RouteDRAM {
		t.Fatalf("read route = %v", r)
	}
	if !bytes.Equal(got, store) {
		t.Fatal("read-after-store mismatch")
	}
	p.Expired(sim.Time(sim.Micros(20)))
	if !bytes.Equal(dst[192:256], store) {
		t.Fatal("inbound SSD line overwrote the CPU store")
	}
	if !bytes.Equal(dst[0:192], src[0:192]) {
		t.Fatal("untouched lines not copied from SSD")
	}
	_, _, dropped, redirected := p.Stats()
	if dropped != 1 || redirected != 1 {
		t.Fatalf("dropped=%d redirected=%d", dropped, redirected)
	}
}

// Reads of lines the background copy has not reached are served from the
// SSD side; reads of copied lines from DRAM.
func TestReadRoutingFollowsCopyProgress(t *testing.T) {
	p, _ := New(testConfig())
	src, dst := mkPage(0x77, 256), mkPage(0, 256)
	p.Start(0, 5, 0, src, dst, false)
	buf := make([]byte, 64)
	// perLine = 12.1µs/4 ≈ 3.025µs. At t=1µs line 0 is not yet copied.
	if r := p.Access(sim.Time(sim.Micros(1)), 5, 0, buf, false); r != RouteSSD {
		t.Fatalf("early read route = %v, want SSD", r)
	}
	if buf[0] != 0x77 {
		t.Fatal("SSD-side read returned wrong data")
	}
	// At t=4µs line 0 has landed in DRAM.
	if r := p.Access(sim.Time(sim.Micros(4)), 5, 0, buf, false); r != RouteDRAM {
		t.Fatalf("late read route = %v, want DRAM", r)
	}
	if buf[0] != 0x77 {
		t.Fatal("DRAM-side read returned wrong data")
	}
	// A page that is not in flight routes to None.
	if r := p.Access(0, 99, 0, buf, false); r != RouteNone {
		t.Fatalf("absent route = %v", r)
	}
}

func TestAccessPanicsOnBadRange(t *testing.T) {
	p, _ := New(testConfig())
	p.Start(0, 5, 0, mkPage(0, 256), mkPage(0, 256), false)
	for _, f := range []func(){
		func() { p.Access(0, 5, 250, make([]byte, 10), false) }, // beyond page
		func() { p.Access(0, 5, 60, make([]byte, 8), false) },   // spans lines
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestFlushCompletesEverything(t *testing.T) {
	p, _ := New(testConfig())
	dsts := make([][]byte, 3)
	for i := range dsts {
		dsts[i] = mkPage(0, 256)
		p.Start(0, uint32(i+1), i, mkPage(byte(i+1), 256), dsts[i], false)
	}
	cs := p.Flush(0)
	if len(cs) != 3 {
		t.Fatalf("flush completions = %d", len(cs))
	}
	for i, d := range dsts {
		if d[0] != byte(i+1) {
			t.Fatalf("frame %d not fully copied", i)
		}
	}
	if p.Pending() != 0 {
		t.Fatal("entries not freed")
	}
}

// Property: for any interleaving of CPU stores and background copy progress,
// the final page equals the SSD snapshot overlaid with the latest CPU store
// per line.
func TestPromotionConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testConfig()
		p, _ := New(cfg)
		rng := sim.NewRNG(seed)
		src := make([]byte, cfg.PageSize)
		for i := range src {
			src[i] = byte(rng.Uint64())
		}
		dst := mkPage(0, cfg.PageSize)
		p.Start(0, 1, 0, src, dst, false)

		want := make([]byte, cfg.PageSize)
		copy(want, src)
		// Random stores at random times within the flight window.
		for k := 0; k < 8; k++ {
			line := rng.Intn(4)
			at := sim.Time(sim.Duration(rng.Intn(12)) * sim.Microsecond)
			data := make([]byte, cfg.CacheLineSize)
			for i := range data {
				data[i] = byte(rng.Uint64())
			}
			p.Access(at, 1, line*cfg.CacheLineSize, data, true)
			copy(want[line*cfg.CacheLineSize:], data)
		}
		p.Expired(sim.Time(sim.Micros(20)))
		return bytes.Equal(dst, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// A store narrower than a cache line during flight must keep the rest of
// its line's SSD-side bytes (partial stores must not zero the line).
func TestPartialStoreDuringFlightKeepsLine(t *testing.T) {
	p, _ := New(testConfig())
	src, dst := mkPage(0x55, 256), mkPage(0, 256)
	p.Start(0, 3, 0, src, dst, false)
	// 4-byte store into line 3 before the background copy reaches it.
	p.Access(0, 3, 192+8, []byte{1, 2, 3, 4}, true)
	got := make([]byte, 64)
	p.Access(0, 3, 192, got, false)
	want := mkPage(0x55, 64)
	copy(want[8:], []byte{1, 2, 3, 4})
	if !bytes.Equal(got, want) {
		t.Fatalf("line contents = %x", got[:16])
	}
	p.Expired(sim.Time(sim.Micros(20)))
	if !bytes.Equal(dst[192:256], want) {
		t.Fatal("final frame lost non-stored bytes of the line")
	}
}
