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

// TestArriveZeroAlloc: once the region is warm, Arrive itself allocates
// nothing — completions live in a fixed ring of QueueDepth slots, so neither
// queue growth nor its drain reallocates — and the budget counts the device's
// remaining first touches exactly.
func TestArriveZeroAlloc(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	const region = 256 << 10
	s, err := NewServer(*testDevice(), "zipf", region, ServerOptions{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.NewStream("zipf", sim.NewRNG(1), region)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]workload.AccessOp, 8192)
	for i := range ops {
		ops[i] = stream.Next()
	}
	var at sim.Time
	arrive := func(i int) {
		// Arrivals 1µs apart outrun the device, so the queue fills, sheds
		// and drains while the ring wraps.
		at = at.Add(sim.Micros(1))
		if _, err := s.Arrive(at, ops[i%len(ops)]); err != nil {
			t.Fatal(err)
		}
	}
	// Four passes over the op cycle warm the device: the SSD-Cache's
	// buffers reach their steady population.
	for i := 0; i < 4*len(ops); i++ {
		arrive(i)
	}
	// The device still grows after the warm-up, on first touches only:
	// promotions of the zipf tail's pages claim DRAM frames never allocated
	// before, and the write frontier's first program of a physical page can
	// extend flash's page records. In these 10,000 arrivals that is exactly
	// one allocation; the completion ring adds none.
	i := 0
	alloctest.Exact(t, 10000, 1, func() {
		arrive(i)
		i++
	})
	if s.Shed() == 0 || s.maxDepth != 8 {
		t.Fatalf("queue never filled: shed=%d max depth=%d", s.Shed(), s.maxDepth)
	}
}
