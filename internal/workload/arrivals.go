package workload

import (
	"fmt"
	"math"
	"strings"

	"flatflash/internal/sim"
)

// ArrivalConfig describes an open-loop traffic source: requests arrive at
// seeded Poisson times, modulated by a diurnal curve, from a large simulated
// client population. Unlike the closed-loop tenant streams (one op after the
// previous completes, plus think time), arrivals here do not wait for the
// system — an overloaded device simply falls behind, which is what lets the
// fleet engine observe real overload and shed load.
type ArrivalConfig struct {
	// MixSpec is a "+"-separated list of named mixes ("zipf+scan"); a
	// client's id picks its mix (client mod len(mixes)), mirroring how mtsim
	// cycles mixes across tenants.
	MixSpec string

	// Rate is the mean arrival rate in requests per virtual second at the
	// diurnal midline.
	Rate float64

	// DiurnalAmp in [0, 1) modulates the instantaneous rate as
	// Rate*(1 + DiurnalAmp*sin(2*pi*t/DiurnalPeriod)); 0 is homogeneous
	// Poisson. DiurnalPeriod must be positive when DiurnalAmp is.
	DiurnalAmp    float64
	DiurnalPeriod sim.Duration

	// Clients is the simulated client population; each arrival is issued by
	// a uniformly drawn client id in [0, Clients).
	Clients uint64

	// RegionBytes is the global address space the mixes cover.
	RegionBytes uint64

	// Ops is the total number of arrivals to generate.
	Ops int

	// Seed makes the arrival process reproducible: equal configs generate
	// byte-identical arrival sequences.
	Seed uint64
}

// Validate checks the configuration.
func (c ArrivalConfig) Validate() error {
	switch {
	case c.MixSpec == "":
		return fmt.Errorf("workload: arrivals need a mix spec")
	case math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate < 1e-3 || c.Rate > 1e12:
		// The bounds keep virtual timestamps far from int64 overflow: at
		// 1e-3/s the largest exponential gap a single draw can produce is
		// ~3.7e13 ns, and the thinning loop draws ~(1+amp) candidates per
		// arrival on average.
		return fmt.Errorf("workload: arrival rate %v outside [1e-3, 1e12]/s", c.Rate)
	case math.IsNaN(c.DiurnalAmp) || c.DiurnalAmp < 0 || c.DiurnalAmp >= 1:
		return fmt.Errorf("workload: diurnal amplitude %v outside [0,1)", c.DiurnalAmp)
	case c.DiurnalAmp > 0 && c.DiurnalPeriod <= 0:
		return fmt.Errorf("workload: diurnal amplitude %v needs a positive period", c.DiurnalAmp)
	case c.Clients == 0:
		return fmt.Errorf("workload: zero clients")
	case c.RegionBytes < RecordBytes:
		return fmt.Errorf("workload: region %d B below one %d B record", c.RegionBytes, RecordBytes)
	case c.Ops < 0:
		return fmt.Errorf("workload: negative ops %d", c.Ops)
	}
	for _, mix := range strings.Split(c.MixSpec, "+") {
		if !MixKnown(mix) {
			return fmt.Errorf("workload: unknown mix %q in spec %q (have %v)", mix, c.MixSpec, Mixes())
		}
	}
	return nil
}

// Persistent reports whether any mix in the spec issues persistence barriers
// (the serving device then needs a persistent mapping).
func (c ArrivalConfig) Persistent() bool {
	for _, mix := range strings.Split(c.MixSpec, "+") {
		if MixPersistent(mix) {
			return true
		}
	}
	return false
}

// Arrival is one open-loop request: its arrival time, the issuing client,
// the mix index within the spec that produced it, and the access itself.
type Arrival struct {
	At     sim.Time
	Client uint64
	Mix    int
	Op     AccessOp
}

// ArrivalGen generates the arrival sequence of an ArrivalConfig. Arrivals
// are non-decreasing in virtual time and a pure function of the config, so
// equal configs produce byte-identical sequences.
type ArrivalGen struct {
	cfg     ArrivalConfig
	rng     *sim.RNG
	streams []Stream
	now     sim.Time
	emitted int
	lambda  float64 // thinning envelope rate, per nanosecond
	floor   float64 // at or below the curve's minimum rate; see Next
}

// NewArrivalGen builds the generator. Per-mix streams draw from RNGs derived
// from the config seed, so the key sequence of each mix is independent of
// how many arrivals the other mixes get.
func NewArrivalGen(cfg ArrivalConfig) (*ArrivalGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mixes := strings.Split(cfg.MixSpec, "+")
	g := &ArrivalGen{
		cfg:     cfg,
		rng:     sim.NewRNG(mixSeed(cfg.Seed, 0)),
		streams: make([]Stream, len(mixes)),
		lambda:  cfg.Rate * (1 + cfg.DiurnalAmp) / 1e9,
		floor:   cfg.Rate / 1e9 * (1 - cfg.DiurnalAmp) * (1 - 0x1p-30),
	}
	for i, mix := range mixes {
		s, err := NewStream(mix, sim.NewRNG(mixSeed(cfg.Seed, uint64(i+1))), cfg.RegionBytes)
		if err != nil {
			return nil, err
		}
		g.streams[i] = s
	}
	return g, nil
}

// mixSeed derives independent stream seeds from the config seed with
// splitmix64-style finalization.
func mixSeed(base, idx uint64) uint64 {
	z := base + (idx+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rate returns the instantaneous arrival rate (per nanosecond) at t.
func (g *ArrivalGen) rate(t sim.Time) float64 {
	r := g.cfg.Rate / 1e9
	if g.cfg.DiurnalAmp == 0 {
		return r
	}
	phase := 2 * math.Pi * float64(t) / float64(g.cfg.DiurnalPeriod)
	return r * (1 + g.cfg.DiurnalAmp*math.Sin(phase))
}

// Next returns the next arrival; ok is false once Ops arrivals were emitted.
// The non-homogeneous Poisson process is sampled by thinning: candidate
// points at the envelope rate, accepted with probability rate(t)/envelope,
// which keeps every draw a pure function of the seeded RNG.
//
// A candidate whose acceptance draw is at or below floor is accepted
// without evaluating the curve: every float operation in rate rounds
// monotonically and sin >= -1, so rate(t) >= fl(r*(1-A)) >= floor for
// every t, and the 2^-30 margin keeps that true even if math.Sin were an
// ulp below -1. The draws and the arrivals are those of the plain test.
func (g *ArrivalGen) Next() (a Arrival, ok bool) {
	if g.emitted >= g.cfg.Ops {
		return Arrival{}, false
	}
	for {
		u := g.rng.Float64()
		gap := -math.Log(1-u) / g.lambda // exponential inter-arrival, ns
		g.now = g.now.Add(sim.Duration(gap))
		if x := g.rng.Float64() * g.lambda; x > g.floor && x > g.rate(g.now) {
			continue // thinned out: envelope point outside the diurnal curve
		}
		client := g.rng.Uint64n(g.cfg.Clients)
		mix := int(client % uint64(len(g.streams)))
		g.emitted++
		return Arrival{At: g.now, Client: client, Mix: mix, Op: g.streams[mix].Next()}, true
	}
}

// Remaining returns how many arrivals Next will still produce.
func (g *ArrivalGen) Remaining() int { return g.cfg.Ops - g.emitted }
