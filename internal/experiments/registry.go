package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner produces the reports of one experiment.
type Runner func(Scale) []*Report

// registry maps experiment IDs to runners, in the paper's order.
var registry = []struct {
	id     string
	desc   string
	runner Runner
}{
	{"table2", "Table 2: component latencies", func(Scale) []*Report { return []*Report{Table2()} }},
	{"fig8", "Figure 8: 64B access latency, sequential & random", Fig8},
	{"fig9a", "Figure 9a: HPCC-GUPS performance & page movements", one(Fig9a)},
	{"fig9b", "Figure 9b: sensitivity to SSD-Cache size", one(Fig9b)},
	{"fig10", "Figure 10: graph analytics (PageRank, ConnComp)", Fig10},
	{"fig11", "Figure 11: YCSB tail latency", Fig11},
	{"fig12", "Figure 12: YCSB average latency & hit ratio", Fig12},
	{"fig13", "Figure 13: file-system metadata persistence", one(Fig13)},
	{"fig14", "Figure 14a-c: database throughput scaling", Fig14},
	{"fig14d", "Figure 14d: device-latency sweep", one(Fig14d)},
	{"fig7", "Figure 7 ablation: centralized vs per-tx logging", one(Fig7Ablation)},
	{"ablations", "Design ablations: promotion, PLB, RRIP, wear-aware GC", Ablations},
	{"capi", "Extension: coherent host caching of MMIO (§3.1)", CAPI},
	{"consolidate", "Extension: server consolidation, multi-tenant slowdown & fairness", one(Consolidate)},
	{"fleet", "Extension: sharded fleet scale-out under open-loop load", one(FleetSweep)},
	{"mapsweep", "Extension: demand-paged translation map, map-cache size sweep", one(MapCacheSweep)},
	{"mapamp", "Extension: demand-paged translation map, zipf-vs-scan miss amplification", one(MapMissAmp)},
	{"table1", "Table 1: summary of improvements", one(Table1)},
	{"table3", "Table 3: cost-effectiveness vs DRAM-only", one(Table3)},
}

func one(f func(Scale) *Report) Runner {
	return func(s Scale) []*Report { return []*Report{f(s)} }
}

// IDs returns all experiment IDs in run order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Describe returns a sorted "id: description" list.
func Describe() []string {
	var out []string
	for _, e := range registry {
		out = append(out, fmt.Sprintf("%-8s %s", e.id, e.desc))
	}
	sort.Strings(out)
	return out
}

// Run executes the experiment with the given ID and prints its reports.
func Run(w io.Writer, id string, scale Scale) error {
	for _, e := range registry {
		if e.id == id {
			for _, rep := range e.runner(scale) {
				rep.Print(w)
			}
			return nil
		}
	}
	return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
}

// RunAll executes every experiment in paper order.
func RunAll(w io.Writer, scale Scale) error {
	for _, e := range registry {
		if err := Run(w, e.id, scale); err != nil {
			return err
		}
	}
	return nil
}
