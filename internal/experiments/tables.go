package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/fsim"
	"flatflash/internal/graph"
	"flatflash/internal/gups"
	"flatflash/internal/kvstore"
	"flatflash/internal/sim"
	"flatflash/internal/stats"
	"flatflash/internal/txdb"
)

// appRun executes one named application workload on hierarchy h and returns
// elapsed virtual time. Used by Table 1 and Table 3; the graph workloads
// load shape.
//
//flatflash:lp
func appRun(app string, h core.Hierarchy, scale Scale, shape *graph.Shape) (sim.Duration, error) {
	switch app {
	case "GUPS":
		res, err := gups.Run(h, gups.Config{TableBytes: 2 << 20, Updates: scale.pick(4000, 20000), Seed: 7})
		return res.Elapsed, err
	case "PageRank", "ConnComp":
		g, err := shape.Load(h)
		if err != nil {
			return 0, err
		}
		res, err := runGraph(g, app)
		return res.Elapsed, err
	case "YCSB-B", "YCSB-D":
		wl := byte(app[len(app)-1])
		res, err := kvstore.Run(h, kvstore.Config{
			Records: 16384, Ops: scale.pick(5000, 20000), Workload: wl, Seed: 11,
		})
		if err != nil {
			return 0, err
		}
		return sim.Duration(res.Avg) * sim.Duration(res.Hist.Count()), nil
	case "TPCC", "TPCB", "TATP":
		wl := map[string]txdb.Workload{"TPCC": txdb.TPCC, "TPCB": txdb.TPCB, "TATP": txdb.TATP}[app]
		res, err := txdb.Run(h, txdb.Config{
			Workload: wl, LogMode: txdb.PerTransaction,
			Threads: 8, TxPerThread: scale.pick(25, 80), DBBytes: 16 << 20, Seed: 5,
		})
		return res.Elapsed, err
	}
	return 0, fmt.Errorf("experiments: unknown app %q", app)
}

// appShape returns the graph Table 1 and Table 3's graph workloads load.
func appShape(scale Scale) *graph.Shape {
	shape, err := graph.NewShape(scale.pick(1200, 4000), 10, 40)
	must(err)
	return shape
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// table1Apps lists Table 1's application workloads.
var table1Apps = []string{"GUPS", "PageRank", "ConnComp", "YCSB-B", "YCSB-D", "TPCC", "TPCB", "TATP"}

// appConfig returns the hierarchy config each Table-1/3 app runs under
// (working set several times DRAM, paper-style ratios).
func appConfig(app string) core.Config {
	switch app {
	case "TPCC", "TPCB", "TATP":
		// SSD sized so the SSD-Cache : DRAM proportion matches the paper's
		// testbed (2 GB cache vs 6 GB buffer pool ~ 1:3), which matters for
		// the write-coalescing that determines flash wear.
		return core.DefaultConfig(512<<20, 2<<20)
	case "GUPS":
		return core.DefaultConfig(64<<20, 128<<10)
	case "PageRank", "ConnComp":
		// Graph footprint (~300 KB at quick scale) well above DRAM.
		return core.DefaultConfig(32<<20, 64<<10)
	default:
		return core.DefaultConfig(32<<20, 256<<10)
	}
}

// Table1 reproduces Table 1: FlatFlash's average performance and
// SSD-lifetime improvement over UnifiedMMap for the real workloads.
// (The file-system rows come from Fig13's machinery.)
func Table1(scale Scale) *Report {
	rep := &Report{
		ID:     "table1",
		Title:  "FlatFlash improvement over UnifiedMMap (performance, SSD lifetime)",
		Header: []string{"Workload", "Performance", "SSD lifetime"},
	}
	apps, shape := table1Apps, appShape(scale)
	rows := fanOut(len(apps), func(e env, i int) ([]string, error) {
		return table1Cell(e, apps[i], scale, shape)
	})
	for _, row := range rows {
		rep.AddRow(row...)
	}
	// File-system rows: byte persistence vs the conventional block stack.
	// Cells come in pairs per file system, block journaling first.
	kinds := []fsim.FSKind{fsim.EXT4, fsim.XFS, fsim.BtrFS}
	ops := scale.pick(60, 200)
	runs := fanOut(2*len(kinds), func(e env, i int) (fsim.Result, error) {
		if i%2 == 0 {
			return fsimCell(e, "TraditionalStack", kinds[i/2], fsim.BlockJournal, fsim.WCreateFile, ops)
		}
		return fsimCell(e, "FlatFlash", kinds[i/2], fsim.BytePersist, fsim.WCreateFile, ops)
	})
	for i, kind := range kinds {
		rb, rf := runs[2*i], runs[2*i+1]
		life := "-"
		if rf.FlashProgramsDelta > 0 {
			life = fmt.Sprintf("%.1fx", float64(rb.FlashProgramsDelta)/float64(rf.FlashProgramsDelta))
		}
		rep.AddRow(kind.String()+" CreateFile", ratio(float64(rb.Elapsed), float64(rf.Elapsed)), life)
	}
	rep.AddNote("paper Table 1: GUPS 1.6x/1.3x, PageRank 1.3x/1.5x, ConnComp 1.5x/1.9x, YCSB 2.1-2.2x/1.3x, FS 2.6-18.9x/1.4-12.1x, DB 1.3-2.8x/1.0x")
	return rep
}

// table1Cell runs app on FlatFlash and on UnifiedMMap and returns its Table 1
// row: the speedup, and the flash-program ratio once both have drained
// their deferred write-back.
//
//flatflash:lp
func table1Cell(e env, app string, scale Scale, shape *graph.Shape) ([]string, error) {
	ff, err := e.build("FlatFlash", appConfig(app))
	if err != nil {
		return nil, err
	}
	um, err := e.build("UnifiedMMap", appConfig(app))
	if err != nil {
		return nil, err
	}
	et, err := appRun(app, ff, scale, shape)
	if err != nil {
		return nil, err
	}
	eu, err := appRun(app, um, scale, shape)
	if err != nil {
		return nil, err
	}
	// Flush deferred write-back on both sides before comparing wear.
	ff.Drain()
	um.Drain()
	pf := ff.Counters().Get("flash_programs")
	pu := um.Counters().Get("flash_programs")
	life := "1.0x"
	if pf > 0 && pu > 0 {
		life = fmt.Sprintf("%.1fx", float64(pu)/float64(pf))
	}
	return []string{app, ratio(float64(eu), float64(et)), life}, nil
}

// Table2 reproduces Table 2: the latency of FlatFlash's major components —
// these are the calibrated simulator inputs, printed for verification.
func Table2() *Report {
	cfg := core.DefaultConfig(1<<30, 2<<20)
	rep := &Report{
		ID:     "table2",
		Title:  "Latency of the major components",
		Header: []string{"Overhead source", "Average"},
	}
	rep.AddRow("Read a cache line in SSD-Cache via PCIe MMIO", us(cfg.PCIe.MMIOReadLatency))
	rep.AddRow("Write a cache line in SSD-Cache via PCIe MMIO", us(cfg.PCIe.MMIOWriteLatency))
	rep.AddRow("Promote a page from SSD-Cache to host DRAM", us(cfg.PLB.PromotionLatency))
	rep.AddRow("Update PTE and TLB entry in host machine", us(cfg.VM.UpdateLatency))
	rep.AddRow("Page table walking to get the page location", us(cfg.VM.WalkLatency))
	rep.AddNote("paper Table 2: 4.8 / 0.6 / 12.1 / 1.4 / 0.7 µs — the simulator uses these measured values as inputs")
	return rep
}

// Table3 reproduces Table 3: cost-effectiveness of FlatFlash vs a DRAM-only
// system. The DRAM-only comparator hosts the whole working set in DRAM
// (faults only cold misses); slow-down is FlatFlash's elapsed time over
// DRAM-only's. Costs use the paper's unit prices at paper scale (the
// simulator's 1024:1 capacity scaling is undone for pricing so the $1,500
// DRAM-only base cost keeps its weight).
func Table3(scale Scale) *Report {
	model := stats.DefaultCostModel()
	rep := &Report{
		ID:     "table3",
		Title:  "Cost-effectiveness vs DRAM-only",
		Header: []string{"Workload", "Slow-down", "Cost-saving", "Cost-effectiveness"},
	}
	const capScale = 1024 // undo the GB->MB capacity scaling for pricing
	// Redis-style services spend CPU per request (parsing, hashing,
	// networking) on top of memory accesses; the paper's YCSB latencies
	// include it, which is why its slow-downs stay moderate.
	const serverCPUPerOp = 10 * sim.Microsecond
	// The paper's DRAM-only GUPS implies ~2.5 µs/update of CPU/TLB work
	// (Table 3's 8.9x slow-down against ~25 µs FlatFlash updates).
	const gupsCPUPerOp = 2500 * sim.Nanosecond
	ycsbOps := map[string]bool{"YCSB-B": true, "YCSB-D": true}
	apps, shape := table1Apps, appShape(scale)
	// Cell i times application i on FlatFlash, then on the DRAM-only system.
	elapsed := fanOut(len(apps), func(e env, i int) ([2]sim.Duration, error) {
		return table3Cell(e, apps[i], scale, shape)
	})
	for i, app := range apps {
		cfg := appConfig(app)
		et, ed := elapsed[i][0], elapsed[i][1]
		if ycsbOps[app] {
			ops := sim.Duration(scale.pick(5000, 20000)) * serverCPUPerOp
			et += ops
			ed += ops
		}
		if app == "GUPS" {
			ops := sim.Duration(scale.pick(4000, 20000)) * gupsCPUPerOp
			et += ops
			ed += ops
		}
		slow := float64(et) / float64(ed)
		costFF := model.FlatFlashCost(cfg.DRAMBytes*capScale, cfg.SSDBytes*capScale)
		costDR := model.DRAMOnlyCost(cfg.SSDBytes * capScale)
		saving, eff := stats.CostEffectiveness(slow, costFF, costDR)
		rep.AddRow(app, fmt.Sprintf("%.1fx", slow), fmt.Sprintf("%.1fx", saving), fmt.Sprintf("%.1fx", eff))
	}
	rep.AddNote("paper Table 3: slow-downs 1.2-11.0x, cost-savings 2.4-15.0x, effectiveness 1.3-3.8x")
	return rep
}

// table3Cell returns app's elapsed time on FlatFlash and on the DRAM-only
// comparator: the same FlatFlash machinery with DRAM covering the whole SSD
// and eager promotion, so after warm-up every access is at DRAM speed.
//
//flatflash:lp
func table3Cell(e env, app string, scale Scale, shape *graph.Shape) ([2]sim.Duration, error) {
	cfg := appConfig(app)
	dcfg := cfg
	dcfg.DRAMBytes = cfg.SSDBytes
	dcfg.Promotion = core.PromoteAlways
	var out [2]sim.Duration
	for i, c := range []core.Config{cfg, dcfg} {
		h, err := e.build("FlatFlash", c)
		if err != nil {
			return out, err
		}
		if out[i], err = appRun(app, h, scale, shape); err != nil {
			return out, err
		}
	}
	return out, nil
}
