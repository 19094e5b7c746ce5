package experiments

import (
	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
)

// Fig8 reproduces Figure 8: average latency of a 64-byte access, sequential
// and random, as the SSD grows (paper 32 GB–1 TB, scaled 1024:1 to
// 32 MB–1 GB) with host DRAM fixed (paper 2 GB -> 2 MB). The paper
// allocates 2 M pages spanning the SSD and warms up with random accesses.
func Fig8(scale Scale) []*Report {
	ssdSizes := []uint64{32 << 20, 128 << 20, 512 << 20, 1 << 30}
	if scale == Quick {
		ssdSizes = []uint64{32 << 20, 128 << 20}
	}
	const dramBytes = 2 << 20
	// The paper's 2M pages (8 GB) over 2 GB DRAM: working set 4x DRAM.
	nPages := scale.pick(2048, 4096)
	warm := nPages
	measured := scale.pick(4096, 16384)

	names := sysNames
	seq := &Report{ID: "fig8a", Title: "64B access latency, sequential", Header: append([]string{"SSD"}, names...)}
	rnd := &Report{ID: "fig8b", Title: "64B access latency, random", Header: append([]string{"SSD"}, names...)}

	lat := fanOut(len(ssdSizes)*len(names), func(e env, i int) (fig8Lat, error) {
		return fig8One(e, names[i%len(names)], ssdSizes[i/len(names)], dramBytes, nPages, warm, measured)
	})
	for i, ssd := range ssdSizes {
		seqRow := []string{mb(ssd)}
		rndRow := []string{mb(ssd)}
		for _, l := range lat[i*len(names) : (i+1)*len(names)] {
			seqRow = append(seqRow, us(l.seq))
			rndRow = append(rndRow, us(l.rnd))
		}
		seq.AddRow(seqRow...)
		rnd.AddRow(rndRow...)
	}
	seq.AddNote("paper: FlatFlash ~= UnifiedMMap with slight promotion overhead; both beat TraditionalStack")
	rnd.AddNote("paper: FlatFlash 1.2-1.4x better than UnifiedMMap, 1.8-2.1x better than TraditionalStack")
	return []*Report{seq, rnd}
}

// fig8Lat is one system's mean sequential and random 64 B read latency.
type fig8Lat struct{ seq, rnd sim.Duration }

// fig8One measures one system: pages spread uniformly over the SSD, warmed
// randomly, then sequential and random 64 B accesses.
//
//flatflash:lp
func fig8One(e env, name string, ssdBytes, dramBytes uint64, nPages, warm, measured int) (fig8Lat, error) {
	cfg := core.DefaultConfig(ssdBytes, dramBytes)
	h, err := e.build(name, cfg)
	if err != nil {
		return fig8Lat{}, err
	}
	region, err := h.Mmap(ssdBytes / 2) // spans most of the SSD
	if err != nil {
		return fig8Lat{}, err
	}
	pageSize := uint64(cfg.PageSize)
	regionPages := region.Size / pageSize
	stride := regionPages / uint64(nPages)
	if stride == 0 {
		stride = 1
	}
	pageAddr := func(i int) uint64 {
		return region.Base + (uint64(i)*stride%regionPages)*pageSize
	}
	rng := sim.NewRNG(42)
	buf := make([]byte, 64)

	// Warm-up: random accesses to the allocated pages (paper's protocol).
	for i := 0; i < warm; i++ {
		h.Read(pageAddr(rng.Intn(nPages)), buf)
	}

	// Sequential: walk cache lines within consecutive pages.
	seqHist := stats.NewHistogram()
	linesPerPage := cfg.PageSize / 64
	for i := 0; i < measured; i++ {
		page := (i / linesPerPage) % nPages
		line := i % linesPerPage
		lat, err := h.Read(pageAddr(page)+uint64(line*64), buf)
		if err != nil {
			return fig8Lat{}, err
		}
		seqHist.Record(lat)
	}
	// Random: uniform page and line.
	rndHist := stats.NewHistogram()
	for i := 0; i < measured; i++ {
		lat, err := h.Read(pageAddr(rng.Intn(nPages))+uint64(rng.Intn(linesPerPage)*64), buf)
		if err != nil {
			return fig8Lat{}, err
		}
		rndHist.Record(lat)
	}
	return fig8Lat{seqHist.Mean(), rndHist.Mean()}, nil
}
