package experiments

import (
	"fmt"

	"flatflash/internal/core"
	"flatflash/internal/graph"
)

// graphSpec is a synthetic stand-in for one of the paper's datasets.
type graphSpec struct {
	name      string
	vertices  int
	avgDegree int
	seed      uint64
}

// The Twitter and Friendster graphs scaled down: the same power-law shape,
// Friendster slightly larger as in the paper, and average degrees 12 and
// 13, about half the paper's ~24–27.
func graphSpecs(scale Scale) []graphSpec {
	v := scale.pick(4000, 12000)
	return []graphSpec{
		{name: "Twitter-syn", vertices: v, avgDegree: 12, seed: 40},
		{name: "Friendster-syn", vertices: v * 11 / 10, avgDegree: 13, seed: 41},
	}
}

// Fig10 reproduces Figure 10: PageRank and Connected-Components runtime
// (and page movements) on the two graph stand-ins as DRAM shrinks relative
// to the graph. Paper: FlatFlash 1.1-1.6x (PageRank) and 1.1-2.3x
// (ConnComp) over UnifiedMMap, growing with SSD:DRAM ratio.
func Fig10(scale Scale) []*Report {
	algs := []string{"PageRank", "ConnComp"}
	divs := []uint64{2, 4, 8}
	specs := graphSpecs(scale)
	names := sysNames
	// Graph footprint: 2 vertex arrays + edges.
	footprint := func(spec graphSpec) uint64 {
		return uint64(2*spec.vertices*8 + spec.vertices*spec.avgDegree*4)
	}
	dram := func(spec graphSpec, div uint64) uint64 {
		return max(footprint(spec)/div, 16<<10)
	}
	// Each graph is generated once and loaded by all of its cells.
	shapes := make([]*graph.Shape, len(specs))
	for i, spec := range specs {
		var err error
		shapes[i], err = graph.NewShape(spec.vertices, spec.avgDegree, spec.seed)
		must(err)
	}
	// Cell i is system i%3 at DRAM divisor (i/3)%3, algorithm (i/9)%2, graph i/18.
	perRow, perRep := len(names), len(names)*len(divs)
	runs := fanOut(len(specs)*len(algs)*perRep, func(e env, i int) (graph.Result, error) {
		g := i / (perRep * len(algs))
		cfg := core.DefaultConfig(footprint(specs[g])*8, dram(specs[g], divs[i/perRow%len(divs)]))
		return graphCell(e, names[i%perRow], cfg, shapes[g], algs[i/perRep%len(algs)])
	})
	var reports []*Report
	for _, spec := range specs {
		for _, alg := range algs {
			rep := &Report{
				ID:    fmt.Sprintf("fig10-%s-%s", alg, spec.name),
				Title: fmt.Sprintf("%s on %s (V=%d, ~%d edges/vertex)", alg, spec.name, spec.vertices, spec.avgDegree),
				Header: []string{"DRAM", "FlatFlash", "UnifiedMMap", "TraditionalStack",
					"FF moves", "UM moves", "FF vs UM"},
			}
			for _, div := range divs {
				row := runs[:perRow]
				runs = runs[perRow:]
				rep.AddRow(mb(dram(spec, div)),
					row[0].Elapsed.String(), row[1].Elapsed.String(), row[2].Elapsed.String(),
					fmt.Sprintf("%d", row[0].PageMovements), fmt.Sprintf("%d", row[1].PageMovements),
					ratio(float64(row[1].Elapsed), float64(row[0].Elapsed)))
			}
			rep.AddNote("paper: FlatFlash's advantage grows as DRAM shrinks (page movement avoided)")
			reports = append(reports, rep)
		}
	}
	return reports
}

// graphCell loads shape into a fresh hierarchy and runs alg on it.
//
//flatflash:lp
func graphCell(e env, name string, cfg core.Config, shape *graph.Shape, alg string) (graph.Result, error) {
	h, err := e.build(name, cfg)
	if err != nil {
		return graph.Result{}, err
	}
	g, err := shape.Load(h)
	if err != nil {
		return graph.Result{}, err
	}
	return runGraph(g, alg)
}

// runGraph runs alg, PageRank or ConnComp, on g.
//
//flatflash:lp
func runGraph(g *graph.Graph, alg string) (graph.Result, error) {
	if alg == "PageRank" {
		return g.PageRank(2)
	}
	return g.ConnectedComponents(6)
}
