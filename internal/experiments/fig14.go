package experiments

import (
	"fmt"
	"time"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/txdb"
)

const (
	dbSSDBytes  = 256 << 20
	dbDRAMBytes = 6 << 20 // the paper reserves 6 GB (scaled) for the buffer
	dbBytes     = 48 << 20
)

// Fig14 reproduces Figure 14a-c: transaction throughput of TPCC, TPCB, and
// TATP with per-transaction logging on the three systems, as worker threads
// scale 4 -> 16. Paper: FlatFlash 1.1-3.0x over UnifiedMMap, 1.6-4.2x over
// TraditionalStack at 20 µs device latency.
func Fig14(scale Scale) []*Report {
	txPerThread := scale.pick(30, 120)
	wls := []txdb.Workload{txdb.TPCC, txdb.TPCB, txdb.TATP}
	threads := []int{4, 8, 16}
	names := sysNames
	// Cell i is system i%3 at thread count (i/3)%3 of workload i/9.
	perRow, perRep := len(names), len(names)*len(threads)
	tput := fanOut(len(wls)*perRep, func(e env, i int) (float64, error) {
		return txCell(e, names[i%perRow], core.DefaultConfig(dbSSDBytes, dbDRAMBytes), txdb.Config{
			Workload: wls[i/perRep], LogMode: txdb.PerTransaction,
			Threads: threads[i/perRow%len(threads)], TxPerThread: txPerThread,
			DBBytes: dbBytes, Seed: 5,
		})
	})
	var reports []*Report
	for _, wl := range wls {
		rep := &Report{
			ID:     fmt.Sprintf("fig14-%s", wl),
			Title:  fmt.Sprintf("%s throughput (tx/s), per-transaction logging", wl),
			Header: []string{"Threads", "FlatFlash", "UnifiedMMap", "TraditionalStack", "FF vs UM"},
		}
		for _, n := range threads {
			rep.AddRow(txRow(fmt.Sprintf("%d", n), tput[:perRow], 0, 1)...)
			tput = tput[perRow:]
		}
		rep.AddNote("paper: up to 3.0x (vs UnifiedMMap) / 4.2x (vs TraditionalStack); TPCB benefits most (update-intensive)")
		reports = append(reports, rep)
	}
	return reports
}

// Fig14d reproduces Figure 14d: TPCB throughput at 16 threads as the flash
// device latency drops 20 -> 5 µs. Paper: FlatFlash's advantage grows as
// the device gets faster (software paging overheads dominate), up to 5.3x.
func Fig14d(scale Scale) *Report {
	txPerThread := scale.pick(30, 120)
	rep := &Report{
		ID:     "fig14d",
		Title:  "TPCB @16 threads vs device latency",
		Header: []string{"DeviceLatency", "FlatFlash", "UnifiedMMap", "TraditionalStack", "FF vs UM"},
	}
	lats := []time.Duration{20 * time.Microsecond, 10 * time.Microsecond, 5 * time.Microsecond}
	names := sysNames
	// Cell i is system i%3 at device latency i/3.
	perRow := len(names)
	tput := fanOut(len(lats)*perRow, func(e env, i int) (float64, error) {
		cfg := core.DefaultConfig(dbSSDBytes, dbDRAMBytes)
		cfg.FlashReadLatency = sim.Duration(lats[i/perRow].Nanoseconds())
		cfg.FlashProgramLatency = sim.Duration(lats[i/perRow].Nanoseconds())
		return txCell(e, names[i%perRow], cfg, txdb.Config{
			Workload: txdb.TPCB, LogMode: txdb.PerTransaction,
			Threads: 16, TxPerThread: txPerThread,
			DBBytes: dbBytes, Seed: 5,
		})
	})
	for _, lat := range lats {
		rep.AddRow(txRow(lat.String(), tput[:perRow], 0, 1)...)
		tput = tput[perRow:]
	}
	rep.AddNote("paper: FlatFlash outperforms UnifiedMMap by up to 5.3x as device latency falls")
	return rep
}

// Fig7Ablation contrasts centralized vs per-transaction logging on
// FlatFlash (the design argument of Figure 7, exercised explicitly).
func Fig7Ablation(scale Scale) *Report {
	txPerThread := scale.pick(30, 100)
	rep := &Report{
		ID:     "fig7",
		Title:  "TPCB on FlatFlash: centralized vs per-transaction logging",
		Header: []string{"Threads", "Centralized", "PerTransaction", "Speedup"},
	}
	threads := []int{4, 8, 16}
	modes := []txdb.LogMode{txdb.Centralized, txdb.PerTransaction}
	// Cell i is logging mode i%2 at thread count i/2.
	tput := fanOut(len(threads)*len(modes), func(e env, i int) (float64, error) {
		return txCell(e, "FlatFlash", core.DefaultConfig(dbSSDBytes, dbDRAMBytes), txdb.Config{
			Workload: txdb.TPCB, LogMode: modes[i%len(modes)],
			Threads: threads[i/len(modes)], TxPerThread: txPerThread,
			DBBytes: dbBytes, Seed: 5,
		})
	})
	for _, n := range threads {
		rep.AddRow(txRow(fmt.Sprintf("%d", n), tput[:len(modes)], 1, 0)...)
		tput = tput[len(modes):]
	}
	rep.AddNote("decentralized logging removes the lock serialization (Figure 7b)")
	return rep
}

// txRow renders one throughput row: label, each throughput, and the ratio
// of tput[num] to tput[den].
func txRow(label string, tput []float64, num, den int) []string {
	row := []string{label}
	for _, t := range tput {
		row = append(row, fmt.Sprintf("%.0f", t))
	}
	return append(row, ratio(tput[num], tput[den]))
}

// txCell runs one transaction workload on a fresh hierarchy and returns its
// throughput.
//
//flatflash:lp
func txCell(e env, name string, cfg core.Config, tc txdb.Config) (float64, error) {
	h, err := e.build(name, cfg)
	if err != nil {
		return 0, err
	}
	res, err := txdb.Run(h, tc)
	return res.Throughput, err
}
