package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"flatflash/internal/sim"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestHistogramExactMoments(t *testing.T) {
	h := NewHistogram()
	var sum int64
	for i := 1; i <= 100; i++ {
		h.Record(sim.Duration(i) * sim.Microsecond)
		sum += int64(i) * int64(sim.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != sim.Duration(sum/100) {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != sim.Microsecond || h.Max() != 100*sim.Microsecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	var exact []int64
	rng := sim.NewRNG(11)
	for i := 0; i < 50000; i++ {
		v := int64(rng.Intn(1_000_000)) // up to 1ms in ns
		exact = append(exact, v)
		h.Record(sim.Duration(v))
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := exact[int(math.Ceil(p/100*float64(len(exact))))-1]
		got := int64(h.Percentile(p))
		relErr := math.Abs(float64(got-want)) / float64(want)
		if relErr > 0.05 {
			t.Errorf("p%v: got %d want %d (rel err %.3f)", p, got, want, relErr)
		}
	}
}

func TestHistogramPercentileEdges(t *testing.T) {
	h := NewHistogram()
	h.Record(10)
	h.Record(20)
	if h.Percentile(0) != 10 || h.Percentile(100) != 20 {
		t.Fatal("percentile edges wrong")
	}
	h.Record(-5) // clamped to 0
	if h.Min() != 0 {
		t.Fatal("negative sample not clamped")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := 0; i < 100; i++ {
		a.Record(sim.Duration(i))
		b.Record(sim.Duration(1000 + i))
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 1099 {
		t.Fatalf("merged extremes = %v/%v", a.Min(), a.Max())
	}
}

// Property: percentiles are monotone in p, and every percentile lies within
// [Min, Max].
func TestHistogramMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		h := NewHistogram()
		rng := sim.NewRNG(seed)
		for i := 0; i < int(n)+1; i++ {
			h.Record(sim.Duration(rng.Intn(1 << 30)))
		}
		prev := sim.Duration(-1)
		for p := 1.0; p <= 100; p += 7 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return h.Percentile(100) == h.Max() && h.Percentile(0) == h.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramResetAndSummary(t *testing.T) {
	h := NewHistogram()
	h.Record(sim.Micros(4.8))
	if h.Summary() == "" {
		t.Fatal("empty summary")
	}
	h.Reset()
	if h.Count() != 0 {
		t.Fatal("reset failed")
	}
}

func TestCounters(t *testing.T) {
	c := NewCounters()
	c.Add("page_movements", 3)
	c.Add("mmio_reads", 1)
	c.Add("page_movements", 2)
	if c.Get("page_movements") != 5 || c.Get("mmio_reads") != 1 {
		t.Fatal("counter values wrong")
	}
	if c.Get("missing") != 0 {
		t.Fatal("missing counter should be 0")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "page_movements" {
		t.Fatalf("names = %v", names)
	}
	if c.String() != "page_movements=5 mmio_reads=1" {
		t.Fatalf("String = %q", c.String())
	}
	d := NewCounters()
	d.Add("mmio_reads", 9)
	d.Add("evictions", 1)
	c.Merge(d)
	if c.Get("mmio_reads") != 10 || c.Get("evictions") != 1 {
		t.Fatal("merge failed")
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	// 2GB DRAM + 32GB SSD: 2*30 + 32*2 = 124.
	ff := m.FlatFlashCost(2<<30, 32<<30)
	if math.Abs(ff-124) > 1e-9 {
		t.Fatalf("FlatFlashCost = %v", ff)
	}
	// 32GB DRAM-only: 32*30 + 1500 = 2460.
	dr := m.DRAMOnlyCost(32 << 30)
	if math.Abs(dr-2460) > 1e-9 {
		t.Fatalf("DRAMOnlyCost = %v", dr)
	}
	saving, eff := CostEffectiveness(8.9, ff, dr)
	if saving <= 1 || eff <= 0 {
		t.Fatalf("saving=%v eff=%v", saving, eff)
	}
	if math.Abs(saving-dr/ff) > 1e-9 {
		t.Fatal("saving formula wrong")
	}
	if s, e := CostEffectiveness(0, ff, dr); s != 0 || e != 0 {
		t.Fatal("degenerate inputs must yield zeros")
	}
}

// BenchmarkHistogramRecord times one latency sample into the histogram,
// over values spanning every bucket magnitude a simulated latency reaches.
func BenchmarkHistogramRecord(b *testing.B) {
	rng := sim.NewRNG(3)
	vals := make([]sim.Duration, 1024)
	for i := range vals {
		vals[i] = sim.Duration(rng.Uint64() >> (24 + rng.Intn(40)))
	}
	h := NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(vals[i&1023])
	}
}
