package fleet

import (
	"math"
	"testing"

	"flatflash/internal/mtsim"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

// benchBatch is how many arrivals one timed iteration pushes through the
// pipeline: eight shard buffers' worth.
const benchBatch = 8 * shardBatch

// BenchmarkBatchFlush times the fleet pipeline over one batch of
// benchBatch arrivals, routed over two shards by the ring: the coordinator
// hands each full shard buffer to its drain, then waits at a barrier until
// every shard has served its share, on sim.Workers goroutines as a run
// would. Generating and routing the next batch happens outside the timer;
// ns/arrival is the per-request cost of the drain.
func BenchmarkBatchFlush(b *testing.B) {
	cfg := fleetConfig(2, 500000)
	cfg.Arrivals.Ops = 1 << 40 // unbounded for any b.N
	gen, err := workload.NewArrivalGen(cfg.Arrivals)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := NewRing(cfg.Shards, 128, cfg.RingSeed)
	if err != nil {
		b.Fatal(err)
	}
	servers := make([]*mtsim.Server, cfg.Shards)
	for i := range servers {
		if servers[i], err = mtsim.NewServer(*cfg.Device, cfg.Arrivals.MixSpec, cfg.Arrivals.RegionBytes, cfg.Server); err != nil {
			b.Fatal(err)
		}
	}
	pageSize := uint64(cfg.Device.PageSize)
	p := newPipeline(newMigrator(cfg, servers), pageSize, sim.Workers(false), shardBatch)
	defer p.stop()
	batch := make([]workload.Arrival, benchBatch)
	shard := make([]int, benchBatch)
	fill := func() {
		for i := range batch {
			batch[i], _ = gen.Next()
			shard[i] = ring.Lookup(batch[i].Op.Off / pageSize)
		}
	}
	flush := func() {
		for i, a := range batch {
			p.add(shard[i], a)
		}
		if err := p.barrier(); err != nil {
			b.Fatal(err)
		}
	}
	// One warm batch touches the region, so the measured ones are steady.
	fill()
	flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatch), "ns/arrival")
}

var shardSink int

// BenchmarkRingLookup measures routing one page on a two-shard ring of the
// default 128 vnodes per shard.
func BenchmarkRingLookup(b *testing.B) {
	ring, err := NewRing(2, 128, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shardSink = ring.Lookup(uint64(i))
	}
}

// BenchmarkRoute times the coordinator's serial work per arrival, without
// the drains: generating it and picking its shard on the ring.
func BenchmarkRoute(b *testing.B) {
	cfg := fleetConfig(2, 100000)
	cfg.Arrivals.Ops = math.MaxInt
	gen, err := workload.NewArrivalGen(cfg.Arrivals)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := NewRing(cfg.Shards, 128, cfg.RingSeed)
	if err != nil {
		b.Fatal(err)
	}
	pageSize := uint64(cfg.Device.PageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := gen.Next()
		shardSink = ring.Lookup(a.Op.Off / pageSize)
	}
}
