// Package graph implements the GraphChi-style out-of-core graph analytics
// of §5.3: the whole graph (rank/label vertex arrays plus the edge array)
// lives in a mapped region of the unified hierarchy, and the PageRank and
// Connected-Components algorithms stream edges sequentially while accessing
// vertex state at power-law-random positions — the access mix that makes
// graph analytics thrash a paging hierarchy.
//
// The paper runs on the Twitter (61.5 M vertices / 1.5 B edges) and
// Friendster (65.6 M / 1.8 B) graphs; those downloads are unavailable here,
// so NewShape builds synthetic stand-ins with the same shape: power-law
// in-degree (Zipfian targets) at the same average degree, scaled down with
// the rest of the simulator.
package graph

import (
	"encoding/binary"
	"fmt"
	"math"

	"flatflash/internal/core"
	"flatflash/internal/sim"
	"flatflash/internal/workload"
)

// Graph is a directed graph stored in a hierarchy region.
//
// Region layout: [ scores: V*8 bytes | next: V*8 bytes | edges: E*4 bytes ].
// The CSR offsets array is host-side metadata (GraphChi keeps shard indexes
// in memory too).
type Graph struct {
	h       core.Hierarchy
	region  core.Region
	V       int
	E       int
	offsets []int32 // CSR: edges of v are [offsets[v], offsets[v+1])

	// scratch backs every single-slot Read/Write. A stack array would
	// escape through the Hierarchy interface and cost one heap allocation
	// per vertex access — the dominant allocation in the analytics runs.
	// Graph methods are single-threaded, so one buffer suffices.
	scratch [8]byte
}

const vertexSlot = 8 // one float64/uint64 per vertex

func (g *Graph) scoreAddr(v int) uint64 {
	return g.region.Base + uint64(v)*vertexSlot
}

func (g *Graph) nextAddr(v int) uint64 {
	return g.region.Base + uint64(g.V+v)*vertexSlot
}

func (g *Graph) edgeAddr(i int) uint64 {
	return g.region.Base + uint64(2*g.V)*vertexSlot + uint64(i)*4
}

// Shape is a synthetic power-law graph held host-side: the CSR offsets and
// the edge targets, a pure function of NewShape's arguments. Load writes it
// into a hierarchy. A Shape is never written after NewShape returns, so
// runs on different hierarchies may load one Shape concurrently.
type Shape struct {
	offsets []int32  // CSR: edges of v are [offsets[v], offsets[v+1])
	targets []uint32 // edge targets, in CSR order
}

// NewShape builds a synthetic power-law graph with v vertices and roughly
// avgDegree edges per vertex.
func NewShape(v, avgDegree int, seed uint64) (*Shape, error) {
	if v <= 1 || avgDegree < 1 {
		return nil, fmt.Errorf("graph: V %d avgDegree %d", v, avgDegree)
	}
	rng := sim.NewRNG(seed)
	// Out-degrees: mildly skewed around avgDegree; targets: scrambled
	// Zipfian for power-law in-degree (hubs), like real social graphs.
	zipf := workload.NewScrambledZipf(rng, uint64(v), 0.75)
	offsets := make([]int32, v+1)
	for i := 0; i < v; i++ {
		offsets[i+1] = offsets[i] + int32(1+rng.Intn(2*avgDegree-1))
	}
	targets := make([]uint32, offsets[v])
	for i := 0; i < v; i++ {
		for k := offsets[i]; k < offsets[i+1]; k++ {
			t := uint32(zipf.Next())
			if t == uint32(i) {
				t = uint32((i + 1) % v) // no self loops
			}
			targets[k] = t
		}
	}
	return &Shape{offsets: offsets, targets: targets}, nil
}

// Load maps a region of h, writes the edge array through the hierarchy (a
// bulk sequential load), and returns the graph stored there.
func (s *Shape) Load(h core.Hierarchy) (*Graph, error) {
	v, e := len(s.offsets)-1, len(s.targets)
	region, err := h.Mmap(uint64(2*v)*vertexSlot + uint64(e)*4)
	if err != nil {
		return nil, err
	}
	g := &Graph{h: h, region: region, V: v, E: e, offsets: s.offsets}
	for i, t := range s.targets {
		binary.LittleEndian.PutUint32(g.scratch[:4], t)
		if _, err := h.Write(g.edgeAddr(i), g.scratch[:4]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Result reports one analytics run.
type Result struct {
	Elapsed       sim.Duration
	Iterations    int
	PageMovements int64
}

func (g *Graph) readU64(addr uint64) (uint64, error) {
	if _, err := g.h.Read(addr, g.scratch[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(g.scratch[:]), nil
}

func (g *Graph) writeU64(addr uint64, v uint64) error {
	binary.LittleEndian.PutUint64(g.scratch[:], v)
	_, err := g.h.Write(addr, g.scratch[:])
	return err
}

// PageRank runs iters iterations of push-style PageRank with damping 0.85
// and returns run statistics. Scores are stored as float64 bits in the
// vertex slots.
func (g *Graph) PageRank(iters int) (Result, error) {
	moved0 := g.h.Counters().Get("page_movements")
	start := g.h.Now()
	init := math.Float64bits(1.0 / float64(g.V))
	for v := 0; v < g.V; v++ {
		if err := g.writeU64(g.scoreAddr(v), init); err != nil {
			return Result{}, err
		}
	}
	edgeBuf := make([]byte, 0, 1024)
	for it := 0; it < iters; it++ {
		base := math.Float64bits(0.15 / float64(g.V))
		for v := 0; v < g.V; v++ {
			if err := g.writeU64(g.nextAddr(v), base); err != nil {
				return Result{}, err
			}
		}
		for v := 0; v < g.V; v++ {
			lo, hi := int(g.offsets[v]), int(g.offsets[v+1])
			deg := hi - lo
			if deg == 0 {
				continue
			}
			bits, err := g.readU64(g.scoreAddr(v))
			if err != nil {
				return Result{}, err
			}
			share := 0.85 * math.Float64frombits(bits) / float64(deg)
			// Stream this vertex's edges in one sequential read.
			need := deg * 4
			if cap(edgeBuf) < need {
				edgeBuf = make([]byte, need)
			}
			eb := edgeBuf[:need]
			if _, err := g.h.Read(g.edgeAddr(lo), eb); err != nil {
				return Result{}, err
			}
			for k := 0; k < deg; k++ {
				t := int(binary.LittleEndian.Uint32(eb[k*4:]))
				cur, err := g.readU64(g.nextAddr(t))
				if err != nil {
					return Result{}, err
				}
				sum := math.Float64frombits(cur) + share
				if err := g.writeU64(g.nextAddr(t), math.Float64bits(sum)); err != nil {
					return Result{}, err
				}
			}
		}
		// Swap: copy next -> scores (sequential).
		for v := 0; v < g.V; v++ {
			bits, err := g.readU64(g.nextAddr(v))
			if err != nil {
				return Result{}, err
			}
			if err := g.writeU64(g.scoreAddr(v), bits); err != nil {
				return Result{}, err
			}
		}
	}
	return Result{
		Elapsed:       g.h.Now().Sub(start),
		Iterations:    iters,
		PageMovements: g.h.Counters().Get("page_movements") - moved0,
	}, nil
}

// Scores returns the current per-vertex values (for verification).
func (g *Graph) Scores() ([]float64, error) {
	out := make([]float64, g.V)
	for v := 0; v < g.V; v++ {
		bits, err := g.readU64(g.scoreAddr(v))
		if err != nil {
			return nil, err
		}
		out[v] = math.Float64frombits(bits)
	}
	return out, nil
}

// ConnectedComponents runs label propagation until no label changes (or
// maxIters), storing each vertex's component label in its slot.
func (g *Graph) ConnectedComponents(maxIters int) (Result, error) {
	moved0 := g.h.Counters().Get("page_movements")
	start := g.h.Now()
	for v := 0; v < g.V; v++ {
		if err := g.writeU64(g.scoreAddr(v), uint64(v)); err != nil {
			return Result{}, err
		}
	}
	edgeBuf := make([]byte, 0, 1024)
	iters := 0
	for it := 0; it < maxIters; it++ {
		iters++
		changed := false
		for v := 0; v < g.V; v++ {
			lo, hi := int(g.offsets[v]), int(g.offsets[v+1])
			if lo == hi {
				continue
			}
			mine, err := g.readU64(g.scoreAddr(v))
			if err != nil {
				return Result{}, err
			}
			need := (hi - lo) * 4
			if cap(edgeBuf) < need {
				edgeBuf = make([]byte, need)
			}
			eb := edgeBuf[:need]
			if _, err := g.h.Read(g.edgeAddr(lo), eb); err != nil {
				return Result{}, err
			}
			for k := 0; k < hi-lo; k++ {
				t := int(binary.LittleEndian.Uint32(eb[k*4:]))
				theirs, err := g.readU64(g.scoreAddr(t))
				if err != nil {
					return Result{}, err
				}
				// Undirected-style propagation: the smaller label wins on
				// both endpoints.
				switch {
				case theirs < mine:
					mine = theirs
					if err := g.writeU64(g.scoreAddr(v), mine); err != nil {
						return Result{}, err
					}
					changed = true
				case mine < theirs:
					if err := g.writeU64(g.scoreAddr(t), mine); err != nil {
						return Result{}, err
					}
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return Result{
		Elapsed:       g.h.Now().Sub(start),
		Iterations:    iters,
		PageMovements: g.h.Counters().Get("page_movements") - moved0,
	}, nil
}

// Labels returns per-vertex labels after ConnectedComponents.
func (g *Graph) Labels() ([]uint64, error) {
	out := make([]uint64, g.V)
	for v := 0; v < g.V; v++ {
		l, err := g.readU64(g.scoreAddr(v))
		if err != nil {
			return nil, err
		}
		out[v] = l
	}
	return out, nil
}

// Edges returns the adjacency list of v (for tests).
func (g *Graph) Edges(v int) ([]uint32, error) {
	lo, hi := int(g.offsets[v]), int(g.offsets[v+1])
	out := make([]uint32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if _, err := g.h.Read(g.edgeAddr(i), g.scratch[:4]); err != nil {
			return nil, err
		}
		out = append(out, binary.LittleEndian.Uint32(g.scratch[:4]))
	}
	return out, nil
}
