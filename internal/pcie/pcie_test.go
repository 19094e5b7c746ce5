package pcie

import (
	"testing"

	"flatflash/internal/sim"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.MMIOReadLatency = 0 },
		func(c *Config) { c.MMIOWriteLatency = -1 },
		func(c *Config) { c.DMAPageLatency = 0 },
		func(c *Config) { c.CacheLineOccupancy = 0 },
		func(c *Config) { c.PageOccupancy = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := NewLink(c); err == nil {
			t.Errorf("case %d: NewLink accepted", i)
		}
	}
}

func TestMMIOLatencies(t *testing.T) {
	l, _ := NewLink(DefaultConfig())
	if done := l.MMIORead(0, false); done != sim.Time(sim.Micros(4.8)) {
		t.Fatalf("read done = %v", done)
	}
	// Posted write is much cheaper than the read round trip.
	w := l.MMIOWrite(sim.Time(sim.Micros(100)), false)
	if w.Sub(sim.Time(sim.Micros(100))) >= sim.Micros(4.8) {
		t.Fatal("posted write as slow as read")
	}
	d := l.DMAPage(sim.Time(sim.Micros(200)))
	if d.Sub(sim.Time(sim.Micros(200))) < sim.Micros(1.3) {
		t.Fatal("DMA too fast")
	}
}

func TestOccupancyQueuesButLatencyOverlaps(t *testing.T) {
	cfg := DefaultConfig()
	l, _ := NewLink(cfg)
	// Two reads issued at the same instant: the second starts one occupancy
	// later, not one full round-trip later.
	a := l.MMIORead(0, false)
	b := l.MMIORead(0, false)
	if b.Sub(a) != cfg.CacheLineOccupancy {
		t.Fatalf("pipelining broken: %v apart", b.Sub(a))
	}
}

func TestStatsAndTraffic(t *testing.T) {
	l, _ := NewLink(DefaultConfig())
	l.MMIORead(0, true)
	l.MMIOWrite(0, true)
	l.MMIOWrite(0, false)
	l.DMAPage(0)
	r, w, d, p := l.Stats()
	if r != 1 || w != 2 || d != 1 || p != 2 {
		t.Fatalf("stats = %d %d %d %d", r, w, d, p)
	}
	// 3 cache lines * 64 + 1 page * 4096.
	if got := l.TrafficBytes(64, 4096); got != 3*64+4096 {
		t.Fatalf("traffic = %d", got)
	}
}

// BenchmarkMMIORead times one non-posted cache-line read on a link with no
// sink attached: the occupancy reservation, the counters and the
// completion time. Each read issues at the previous one's completion.
func BenchmarkMMIORead(b *testing.B) {
	l, err := NewLink(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var now sim.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = l.MMIORead(now, false)
	}
}
