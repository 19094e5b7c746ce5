package mtsim_test

import (
	"bytes"
	"strings"
	"testing"

	"flatflash/internal/core"
	"flatflash/internal/fleet"
	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/telemetry"
	"flatflash/internal/workload"
)

func openLoopDevice() *core.Config {
	cfg := core.DefaultConfig(16<<20, 1<<20)
	return &cfg
}

// openLoopConfig offers the whole arrival stream to one server: a one-shard
// fleet, the configuration flatflash-sim -openloop runs.
func openLoopConfig(rate float64) fleet.Config {
	return fleet.Config{
		Shards: 1,
		Device: openLoopDevice(),
		Arrivals: workload.ArrivalConfig{
			MixSpec:       "zipf",
			Rate:          rate,
			DiurnalAmp:    0.3,
			DiurnalPeriod: 10 * sim.Millisecond,
			Clients:       1 << 20,
			RegionBytes:   256 << 10,
			Ops:           8000,
			Seed:          7,
		},
		Server: mtsim.ServerOptions{
			SLO:           400 * sim.Microsecond,
			ShedWait:      50 * sim.Microsecond,
			IssueOverhead: 300,
		},
	}
}

func TestOpenLoopDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	for _, w := range []*bytes.Buffer{&a, &b} {
		res, err := fleet.Run(openLoopConfig(200000))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Write(w); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("same config, different reports:\n--- A ---\n%s--- B ---\n%s", a.String(), b.String())
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	res, err := fleet.Run(openLoopConfig(100000))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Shards[0]
	if s.Arrivals() != int64(res.Arrivals.Ops) {
		t.Fatalf("server saw %d arrivals, generator made %d", s.Arrivals(), res.Arrivals.Ops)
	}
	if s.Admitted()+s.Shed() != s.Arrivals() {
		t.Fatalf("admitted %d + shed %d != arrivals %d", s.Admitted(), s.Shed(), s.Arrivals())
	}
	if s.Hist().Count() != s.Admitted() {
		t.Fatalf("histogram has %d samples, admitted %d", s.Hist().Count(), s.Admitted())
	}
	if s.Admitted() == 0 {
		t.Fatal("nothing admitted")
	}
	// Admission control bounds every admitted request's queue wait.
	if max, limit := s.Waits().Max(), 50*sim.Microsecond; max > limit {
		t.Fatalf("admitted queue wait %v beyond the %v shed threshold", max, limit)
	}
	if s.Makespan() <= 0 || s.Busy() <= 0 || s.Busy() > s.Makespan() {
		t.Fatalf("busy %v vs makespan %v inconsistent", s.Busy(), s.Makespan())
	}
	if s.Counters().Get("ssdcache_raw_hits")+s.Counters().Get("ssdcache_raw_misses") == 0 {
		t.Fatal("device saw no SSD-Cache traffic")
	}
}

// The overload gate: at many times the sustainable rate, SLO-aware admission
// keeps the admitted tail under the SLO while the shed rate goes nonzero.
func TestOpenLoopOverloadSheds(t *testing.T) {
	cfg := openLoopConfig(2e6) // ~30x what this device sustains on zipf
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Shards[0]
	if s.Shed() == 0 {
		t.Fatal("overloaded server shed nothing")
	}
	if rate := s.ShedRate(); rate < 0.5 {
		t.Fatalf("shed rate %.3f at 30x overload, expected most traffic shed", rate)
	}
	if p99 := s.Hist().Percentile(99); p99 >= cfg.Server.SLO {
		t.Fatalf("admitted p99 %v breaches the %v SLO under shedding", p99, cfg.Server.SLO)
	}
}

// Without an SLO the only backpressure is the bounded FIFO.
func TestOpenLoopQueueFullSheds(t *testing.T) {
	cfg := openLoopConfig(2e6)
	cfg.Server = mtsim.ServerOptions{QueueDepth: 4}
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Shards[0]
	if s.Shed() == 0 {
		t.Fatal("full queue shed nothing")
	}
	if s.SLOViolations() != 0 {
		t.Fatal("SLO violations counted with SLO disabled")
	}
	var buf bytes.Buffer
	if err := res.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "shed_queue=") || strings.Contains(buf.String(), "shed_queue=0 ") {
		t.Fatalf("report does not attribute sheds to the queue bound:\n%s", buf.String())
	}
}

// Batched MMIO issue amortizes the doorbell cost: under backlog, several
// requests ride one batch.
func TestServerBatching(t *testing.T) {
	cfg := openLoopConfig(2e6)
	cfg.Server.Batch = 8
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Shards[0]
	if s.Admitted() == 0 {
		t.Fatal("nothing admitted")
	}
	var buf bytes.Buffer
	if err := s.WriteReport(&buf, 0); err != nil {
		t.Fatal(err)
	}
	line := buf.String()
	if !strings.Contains(line, "batches=") {
		t.Fatalf("no batch accounting in %q", line)
	}
	// More admitted requests than batches means amortization happened.
	var batches int64
	if _, err := fmtSscanf(line, "batches=", &batches); err != nil {
		t.Fatal(err)
	}
	if batches <= 0 || batches >= s.Admitted() {
		t.Fatalf("batches=%d admitted=%d: no amortization under overload", batches, s.Admitted())
	}
}

// The first shed after an admitting stretch fires a flight-recorder trigger.
func TestOpenLoopShedOnsetTrigger(t *testing.T) {
	cfg := openLoopConfig(2e6)
	rec := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity, telemetry.DefaultFlightSnapshots)
	cfg.Server.Flight = rec
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards[0].Shed() == 0 {
		t.Fatal("expected shedding")
	}
	if rec.Triggers() == 0 {
		t.Fatal("shedding fired no flight-recorder trigger")
	}
}

// fmtSscanf pulls the integer following key out of a report line.
func fmtSscanf(line, key string, out *int64) (int, error) {
	i := strings.Index(line, key)
	if i < 0 {
		return 0, errNoKey{key, line}
	}
	rest := line[i+len(key):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	var v int64
	for _, c := range strings.TrimSpace(rest) {
		if c < '0' || c > '9' {
			break
		}
		v = v*10 + int64(c-'0')
	}
	*out = v
	return 1, nil
}

type errNoKey struct{ key, line string }

func (e errNoKey) Error() string { return "key " + e.key + " not in " + e.line }
