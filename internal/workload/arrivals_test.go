package workload

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"flatflash/internal/sim"
)

func arrivalConfig() ArrivalConfig {
	return ArrivalConfig{
		MixSpec:       "zipf+scan",
		Rate:          200000,
		DiurnalAmp:    0.4,
		DiurnalPeriod: 20 * sim.Millisecond,
		Clients:       1 << 20,
		RegionBytes:   256 << 10,
		Ops:           4000,
		Seed:          7,
	}
}

func TestArrivalConfigValidates(t *testing.T) {
	bad := []func(*ArrivalConfig){
		func(c *ArrivalConfig) { c.MixSpec = "" },
		func(c *ArrivalConfig) { c.MixSpec = "zipf+bogus" },
		func(c *ArrivalConfig) { c.Rate = 0 },
		func(c *ArrivalConfig) { c.Rate = math.NaN() },
		func(c *ArrivalConfig) { c.Rate = math.Inf(1) },
		func(c *ArrivalConfig) { c.Rate = 1e13 },
		func(c *ArrivalConfig) { c.DiurnalAmp = -0.1 },
		func(c *ArrivalConfig) { c.DiurnalAmp = 1 },
		func(c *ArrivalConfig) { c.DiurnalAmp = 0.5; c.DiurnalPeriod = 0 },
		func(c *ArrivalConfig) { c.Clients = 0 },
		func(c *ArrivalConfig) { c.RegionBytes = RecordBytes - 1 },
		func(c *ArrivalConfig) { c.Ops = -1 },
	}
	for i, mutate := range bad {
		cfg := arrivalConfig()
		mutate(&cfg)
		if _, err := NewArrivalGen(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewArrivalGen(arrivalConfig()); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
}

// serializeArrivals renders the full arrival sequence into a deterministic
// byte form, the shape the determinism checks compare.
func serializeArrivals(tb testing.TB, cfg ArrivalConfig) []byte {
	tb.Helper()
	g, err := NewArrivalGen(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&buf, "%d %d %d %d %d %v %v\n",
			int64(a.At), a.Client, a.Mix, a.Op.Off, a.Op.Len, a.Op.Write, a.Op.Barrier)
	}
	return buf.Bytes()
}

func TestArrivalGenDeterministic(t *testing.T) {
	a := serializeArrivals(t, arrivalConfig())
	b := serializeArrivals(t, arrivalConfig())
	if !bytes.Equal(a, b) {
		t.Fatal("same config, different arrival sequences")
	}
	other := arrivalConfig()
	other.Seed++
	if bytes.Equal(a, serializeArrivals(t, other)) {
		t.Fatal("different seeds produced identical arrival sequences")
	}
}

func TestArrivalGenShape(t *testing.T) {
	cfg := arrivalConfig()
	g, err := NewArrivalGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var (
		last    sim.Time
		count   int
		mixSeen = map[int]bool{}
	)
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		count++
		if a.At < last {
			t.Fatalf("arrival %d at %d before previous %d", count, a.At, last)
		}
		last = a.At
		if a.Client >= cfg.Clients {
			t.Fatalf("client %d outside population %d", a.Client, cfg.Clients)
		}
		if a.Mix != int(a.Client%2) {
			t.Fatalf("client %d got mix %d, want client-keyed assignment", a.Client, a.Mix)
		}
		if a.Op.Off+uint64(a.Op.Len) > cfg.RegionBytes {
			t.Fatalf("op [%d, +%d) outside region %d", a.Op.Off, a.Op.Len, cfg.RegionBytes)
		}
		mixSeen[a.Mix] = true
	}
	if count != cfg.Ops {
		t.Fatalf("generated %d arrivals, want %d", count, cfg.Ops)
	}
	if g.Remaining() != 0 {
		t.Fatalf("Remaining %d after exhaustion", g.Remaining())
	}

	// The mean inter-arrival time must track 1/Rate within sampling noise.
	mean := float64(last) / float64(cfg.Ops)
	want := 1e9 / cfg.Rate
	if mean < want/2 || mean > want*2 {
		t.Fatalf("mean inter-arrival %.0f ns, want within 2x of %.0f ns", mean, want)
	}
	if !mixSeen[0] || !mixSeen[1] {
		t.Fatal("a mix in the spec never produced an arrival")
	}
}

// With a diurnal curve, arrivals bunch at the peak: the peak-half rate of a
// full period must exceed the trough-half rate.
func TestArrivalGenDiurnalModulation(t *testing.T) {
	cfg := arrivalConfig()
	cfg.DiurnalAmp = 0.8
	cfg.Ops = 20000
	g, err := NewArrivalGen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	period := uint64(cfg.DiurnalPeriod)
	var peak, trough int
	for {
		a, ok := g.Next()
		if !ok {
			break
		}
		if uint64(a.At)%period < period/2 {
			peak++ // sin positive: first half of each period
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Fatalf("diurnal peak half got %d arrivals vs trough half %d; modulation missing", peak, trough)
	}
}

func TestArrivalPersistent(t *testing.T) {
	cases := map[string]bool{"zipf": false, "zipf+scan": false, "txlog": true, "zipf+txlog": true}
	for spec, want := range cases {
		cfg := arrivalConfig()
		cfg.MixSpec = spec
		if got := cfg.Persistent(); got != want {
			t.Errorf("Persistent(%q) = %v, want %v", spec, got, want)
		}
	}
}

// nextThinned is Next without the floor: every candidate's acceptance draw
// is tested against rate(t), as plain thinning does. It is the reference the
// generator's arrivals must equal.
func nextThinned(g *ArrivalGen) (a Arrival, ok bool) {
	if g.emitted >= g.cfg.Ops {
		return Arrival{}, false
	}
	for {
		u := g.rng.Float64()
		gap := -math.Log(1-u) / g.lambda
		g.now = g.now.Add(sim.Duration(gap))
		if g.rng.Float64()*g.lambda > g.rate(g.now) {
			continue
		}
		client := g.rng.Uint64n(g.cfg.Clients)
		mix := int(client % uint64(len(g.streams)))
		g.emitted++
		return Arrival{At: g.now, Client: client, Mix: mix, Op: g.streams[mix].Next()}, true
	}
}

// matchThinned fails tb unless Next and nextThinned emit the same arrivals
// for cfg.
func matchThinned(tb testing.TB, cfg ArrivalConfig) {
	tb.Helper()
	g, err := NewArrivalGen(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ref, err := NewArrivalGen(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for n := 0; ; n++ {
		a, ok := g.Next()
		b, okb := nextThinned(ref)
		if ok != okb || a != b {
			tb.Fatalf("rate=%g amp=%g period=%d: arrival %d is %+v, plain thinning gives %+v",
				cfg.Rate, cfg.DiurnalAmp, cfg.DiurnalPeriod, n, a, b)
		}
		if !ok {
			return
		}
	}
}

// TestArrivalGenMatchesThinning: accepting a candidate below the curve's
// minimum without evaluating the curve changes no arrival, over flat and
// near-full amplitudes, the extreme rates and a 1 ns period.
func TestArrivalGenMatchesThinning(t *testing.T) {
	for _, amp := range []float64{0, 0.05, 0.4, 0.99} {
		for _, rate := range []float64{1e-3, 200000, 1e12} {
			for _, period := range []sim.Duration{1, 20 * sim.Millisecond} {
				cfg := arrivalConfig()
				cfg.Rate, cfg.DiurnalAmp, cfg.DiurnalPeriod = rate, amp, period
				matchThinned(t, cfg)
			}
		}
	}
}

// FuzzArrivalGen fuzzes the generator configuration: any accepted config must
// produce exactly Ops arrivals, non-decreasing and non-negative in virtual
// time, within the client population and region, byte-identical when
// regenerated from the same seed, and equal to plain thinning's.
func FuzzArrivalGen(f *testing.F) {
	f.Add(uint64(1), 200000.0, 0.4, int64(20*sim.Millisecond), uint64(1024), uint64(64<<10), 256, uint8(0))
	f.Add(uint64(9), 0.002, 0.0, int64(0), uint64(1), uint64(RecordBytes), 16, uint8(1))
	f.Add(uint64(42), 1e12, 0.99, int64(1), uint64(1<<32), uint64(1<<24), 64, uint8(5))
	mixSpecs := []string{"zipf", "uniform", "scan", "txlog", "zipf+scan", "zipf+uniform+ycsb-b+txlog"}
	f.Fuzz(func(t *testing.T, seed uint64, rate, amp float64, period int64, clients, region uint64, ops int, mixPick uint8) {
		cfg := ArrivalConfig{
			MixSpec:       mixSpecs[int(mixPick)%len(mixSpecs)],
			Rate:          rate,
			DiurnalAmp:    amp,
			DiurnalPeriod: sim.Duration(period),
			Clients:       clients,
			// Zipf stream construction is O(region/RecordBytes); the cap keeps
			// the CI fuzz smoke's per-exec cost bounded.
			RegionBytes: region % (1 << 26),
			Ops:         ops % 512,
			Seed:        seed,
		}
		g, err := NewArrivalGen(cfg)
		if err != nil {
			t.Skip() // rejected configs are the validator's job
		}
		g2, err := NewArrivalGen(cfg)
		if err != nil {
			t.Fatalf("config accepted once then rejected: %v", err)
		}
		var last sim.Time
		count := 0
		for {
			a, ok := g.Next()
			a2, ok2 := g2.Next()
			if ok != ok2 || a != a2 {
				t.Fatalf("same config diverged at arrival %d: %+v vs %+v", count, a, a2)
			}
			if !ok {
				break
			}
			count++
			if a.At < 0 || a.At < last {
				t.Fatalf("arrival %d time %d not non-decreasing from %d", count, a.At, last)
			}
			last = a.At
			if a.Client >= cfg.Clients {
				t.Fatalf("client %d outside population %d", a.Client, cfg.Clients)
			}
			if a.Op.Len <= 0 || a.Op.Off+uint64(a.Op.Len) > cfg.RegionBytes {
				t.Fatalf("op [%d, +%d) outside region %d", a.Op.Off, a.Op.Len, cfg.RegionBytes)
			}
		}
		if count != cfg.Ops {
			t.Fatalf("generated %d arrivals, want %d", count, cfg.Ops)
		}
		matchThinned(t, cfg)
	})
}

var arrivalSink Arrival

// BenchmarkArrivalGenNext measures one arrival of a diurnal open-loop
// source: the thinning draws and the arrival's zipf or scan access.
func BenchmarkArrivalGenNext(b *testing.B) {
	cfg := arrivalConfig()
	cfg.Ops = math.MaxInt
	g, err := NewArrivalGen(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arrivalSink, _ = g.Next()
	}
}
