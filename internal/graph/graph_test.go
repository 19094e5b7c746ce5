package graph

import (
	"math"
	"testing"

	"flatflash/internal/core"
)

func newFF(t *testing.T) core.Hierarchy {
	t.Helper()
	h, err := core.NewFlatFlash(core.DefaultConfig(16<<20, 512<<10))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// generate builds the shape and loads it into h.
func generate(t *testing.T, h core.Hierarchy, v, avgDegree int, seed uint64) *Graph {
	t.Helper()
	s, err := NewShape(v, avgDegree, seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s.Load(h)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateValidation(t *testing.T) {
	if _, err := NewShape(1, 4, 1); err == nil {
		t.Error("V=1 accepted")
	}
	if _, err := NewShape(10, 0, 1); err == nil {
		t.Error("avgDegree=0 accepted")
	}
}

func TestGenerateShape(t *testing.T) {
	g := generate(t, newFF(t), 200, 4, 42)
	if g.V != 200 || g.E <= 0 {
		t.Fatalf("V=%d E=%d", g.V, g.E)
	}
	// Every edge target is a valid, non-self vertex.
	for v := 0; v < g.V; v += 17 {
		edges, err := g.Edges(v)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range edges {
			if int(e) >= g.V {
				t.Fatalf("edge target %d out of range", e)
			}
			if int(e) == v {
				t.Fatalf("self loop at %d", v)
			}
		}
	}
	// Power-law: some vertex should have clearly more in-edges than average.
	indeg := make([]int, g.V)
	for v := 0; v < g.V; v++ {
		edges, _ := g.Edges(v)
		for _, e := range edges {
			indeg[e]++
		}
	}
	maxIn := 0
	for _, d := range indeg {
		if d > maxIn {
			maxIn = d
		}
	}
	if maxIn < 3*g.E/g.V {
		t.Errorf("no hubs: max in-degree %d, avg %d", maxIn, g.E/g.V)
	}
}

func TestPageRankConserves(t *testing.T) {
	g := generate(t, newFF(t), 100, 4, 7)
	res, err := g.PageRank(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 || res.Iterations != 3 {
		t.Fatalf("res = %+v", res)
	}
	scores, err := g.Scores()
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, s := range scores {
		if s < 0 || math.IsNaN(s) {
			t.Fatal("invalid score")
		}
		sum += s
	}
	// Push PageRank without dangling-mass redistribution keeps the total in
	// (0.15, 1]: damping base plus propagated mass.
	if sum <= 0.15 || sum > 1.0001 {
		t.Fatalf("score mass = %f", sum)
	}
}

func TestConnectedComponentsConverges(t *testing.T) {
	g := generate(t, newFF(t), 100, 4, 9)
	res, err := g.ConnectedComponents(50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 50 {
		t.Fatalf("did not converge: %d iterations", res.Iterations)
	}
	labels, err := g.Labels()
	if err != nil {
		t.Fatal(err)
	}
	// Fixpoint invariant: every edge's endpoints share a label.
	for v := 0; v < g.V; v++ {
		edges, _ := g.Edges(v)
		for _, e := range edges {
			if labels[v] != labels[e] {
				t.Fatalf("edge (%d,%d) crosses components %d/%d", v, e, labels[v], labels[e])
			}
		}
	}
}

// The graph workload should favor FlatFlash over paging when DRAM is small
// relative to the graph (Figure 10's trend).
func TestGraphFlatFlashVsPaging(t *testing.T) {
	mk := func(build func(core.Config) (core.Hierarchy, error)) Result {
		// Graph (~110 KB) is several times the DRAM (32 KB = 8 frames).
		cfg := core.DefaultConfig(16<<20, 32<<10)
		h, err := build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := generate(t, h, 2000, 6, 21)
		res, err := g.PageRank(2)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ff := mk(func(c core.Config) (core.Hierarchy, error) { return core.NewFlatFlash(c) })
	um := mk(core.NewUnifiedMMap)
	if ff.Elapsed >= um.Elapsed {
		t.Errorf("FlatFlash (%v) not faster than UnifiedMMap (%v) under DRAM pressure", ff.Elapsed, um.Elapsed)
	}
	if ff.PageMovements >= um.PageMovements {
		t.Errorf("page movements ff=%d um=%d", ff.PageMovements, um.PageMovements)
	}
}
