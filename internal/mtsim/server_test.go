package mtsim

import (
	"testing"

	"flatflash/internal/alloctest"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

func TestServerOptionsValidate(t *testing.T) {
	bad := []ServerOptions{
		{QueueDepth: -1},
		{Batch: -1},
		{IssueOverhead: -1},
		{SLO: -1},
		{ShedWait: -1},
	}
	for i, opts := range bad {
		if err := opts.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, opts)
		}
	}
	if err := (ServerOptions{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	// ShedWait defaults to half the SLO budget, leaving the rest for service.
	o := ServerOptions{SLO: 100}.withDefaults()
	if o.ShedWait != 50 {
		t.Fatalf("ShedWait default %d, want SLO/2", o.ShedWait)
	}
}

// TestArriveZeroAlloc: once the device is warm, Arrive itself allocates
// nothing — completions live in a fixed ring of QueueDepth slots, so neither
// queue growth nor its drain reallocates — and neither does the device.
func TestArriveZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const region = 256 << 10
	s, err := NewServer(*testDevice(), "zipf", region, ServerOptions{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	warmDevice(t, s, region)
	stream, err := workload.NewStream("zipf", sim.NewRNG(1), region)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]workload.AccessOp, 8192)
	for i := range ops {
		ops[i] = stream.Next()
	}
	at := s.t.Now()
	arrive := func(i int) {
		// Arrivals 1µs apart outrun the device, so the queue fills, sheds
		// and drains while the ring wraps.
		at = at.Add(sim.Micros(1))
		if _, err := s.Arrive(at, ops[i%len(ops)]); err != nil {
			t.Fatal(err)
		}
	}
	// Four passes over the op cycle bring the SSD-Cache's buffers and the
	// policy to their steady state under the zipf mix.
	for i := 0; i < 4*len(ops); i++ {
		arrive(i)
	}
	i := 0
	alloctest.Exact(t, 10000, 0, func() {
		arrive(i)
		i++
	})
	if s.Shed() == 0 || s.maxDepth != 8 {
		t.Fatalf("queue never filled: shed=%d max depth=%d", s.Shed(), s.maxDepth)
	}
}

// warmDevice brings s's device to the end of its growth. The device grows
// its state on first touches only: a DRAM frame (and the frame table with
// it) the first time a promotion claims it, and flash's page records and
// the FTL's map chunks the first time the write frontier programs a
// physical page. A zipf mix reaches the last of those only after hundreds
// of thousands of arrivals, so the warm-up reaches them directly:
//   - it reads each page of the region until the page is promoted, which
//     claims every DRAM frame the region can hold;
//   - rounds of writes to every page, each ended by a Drain that programs
//     every page once, program more pages than the device has;
//   - a crash and recovery then return every page to the SSD, with the
//     frames left allocated for the mix's own promotions;
//   - a last write to every page, now on flash, leaves every SSD-Cache
//     entry written in place, so the cache has pooled an undo log for each.
func warmDevice(t *testing.T, s *Server, region int) {
	t.Helper()
	dev := s.ff.Config()
	line := make([]byte, 64)
	pages := region / dev.PageSize
	for p := 0; p < pages; p++ {
		addr := s.base + uint64(p*dev.PageSize)
		for n, k := s.ff.Counters().Get("promotions"), 0; s.ff.Counters().Get("promotions") == n; k++ {
			if k == 1000 {
				t.Fatalf("warm-up: page %d never promoted", p)
			}
			if _, err := s.ff.Read(addr, line); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round <= 2*int(dev.SSDBytes)/region; round++ {
		for p := 0; p < pages; p++ {
			if _, err := s.ff.Write(s.base+uint64(p*dev.PageSize), line); err != nil {
				t.Fatal(err)
			}
		}
		s.ff.Drain()
	}
	s.ff.Crash()
	s.ff.Recover()
	for p := 0; p < pages; p++ {
		if _, err := s.ff.Write(s.base+uint64(p*dev.PageSize), line); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.ff.Counters(); c.Get("promotions") < int64(pages) || c.Get("recovery_invariant_violations") != 0 {
		t.Fatalf("warm-up: %d promotions of %d pages, %d invariant violations",
			c.Get("promotions"), pages, c.Get("recovery_invariant_violations"))
	}
}
