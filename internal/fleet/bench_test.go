package fleet

import (
	"testing"

	"flatflash/internal/mtsim"
	"flatflash/internal/workload"
)

// BenchmarkBatchFlush times the fleet coordinator's flush of one full batch:
// batchLimit arrivals, routed over two shards by the ring, drained in-line
// through their servers. Generating and routing the next batch happens
// outside the timer; ns/arrival is the per-request cost of the drain.
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
	bt := &batch{
		m:        newMigrator(cfg, servers),
		pageSize: uint64(cfg.Device.PageSize),
		bufs:     make([][]workload.Arrival, cfg.Shards),
		limit:    batchLimit,
	}
	fill := func() {
		for bt.n < bt.limit {
			a, _ := gen.Next()
			sh := ring.Lookup(a.Op.Off / bt.pageSize)
			bt.bufs[sh] = append(bt.bufs[sh], a)
			bt.n++
		}
	}
	// One warm batch touches the region, so the measured ones are steady.
	fill()
	if err := bt.flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fill()
		b.StartTimer()
		if err := bt.flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchLimit), "ns/arrival")
}
