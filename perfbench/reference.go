package main

import (
	"hash/fnv"
	"math"
	"slices"

	"flashgraph"
	"flashgraph/internal/baseline/galois"
	"flashgraph/internal/csr"
)

// refGraph is the benchmark's own CSR of the seeded edge stream with
// duplicates and self-loops removed — the graph the program is asked to
// store — built without any of the program's graph code.
type refGraph struct {
	n      int
	outPtr []int64
	outAdj []flashgraph.VertexID
	inPtr  []int64
	inAdj  []flashgraph.VertexID
}

// newRefGraph regenerates the RMAT stream for (scale, epv, seed) and
// builds the reference CSR in both directions.
func newRefGraph(scale, epv int, seed uint64) *refGraph {
	n := 1 << scale
	edges := make([]flashgraph.Edge, 0, n*epv)
	_ = flashgraph.GenerateRMATStream(scale, epv, seed)(func(e flashgraph.Edge) error {
		if e.Src != e.Dst {
			edges = append(edges, e)
		}
		return nil
	})
	cmp := func(a, b flashgraph.Edge) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	}
	slices.SortFunc(edges, cmp)
	edges = slices.Compact(edges)
	g := &refGraph{n: n}
	g.outPtr, g.outAdj = buildCSR(n, edges, false)
	g.inPtr, g.inAdj = buildCSR(n, edges, true)
	return g
}

// buildCSR lays out edges by source (or by destination when reverse)
// with each list sorted.
func buildCSR(n int, edges []flashgraph.Edge, reverse bool) ([]int64, []flashgraph.VertexID) {
	ptr := make([]int64, n+1)
	for _, e := range edges {
		u := e.Src
		if reverse {
			u = e.Dst
		}
		ptr[u+1]++
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	adj := make([]flashgraph.VertexID, len(edges))
	fill := slices.Clone(ptr[:n])
	for _, e := range edges {
		u, w := e.Src, e.Dst
		if reverse {
			u, w = w, u
		}
		adj[fill[u]] = w
		fill[u]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[ptr[v]:ptr[v+1]])
	}
	return ptr, adj
}

func (g *refGraph) out(v int) []flashgraph.VertexID { return g.outAdj[g.outPtr[v]:g.outPtr[v+1]] }

// bfs is a plain queue BFS over out-edges. It returns the levels (-1 =
// unreached) and the number of out-edges scanned from reached vertices,
// the Graph500 count of traversed edges.
func (g *refGraph) bfs(src flashgraph.VertexID) ([]int32, int64) {
	level := make([]int32, g.n)
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := []flashgraph.VertexID{src}
	var scanned int64
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		nbrs := g.out(int(v))
		scanned += int64(len(nbrs))
		for _, u := range nbrs {
			if level[u] < 0 {
				level[u] = level[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return level, scanned
}

// components labels each vertex with the smallest vertex ID of its
// weakly connected component, by union-find over every edge.
func (g *refGraph) components() []flashgraph.VertexID {
	parent := make([]flashgraph.VertexID, g.n)
	for i := range parent {
		parent[i] = flashgraph.VertexID(i)
	}
	var find func(x flashgraph.VertexID) flashgraph.VertexID
	find = func(x flashgraph.VertexID) flashgraph.VertexID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < g.n; v++ {
		for _, u := range g.out(v) {
			a, b := find(flashgraph.VertexID(v)), find(u)
			// The smaller root wins, so every root is its set's minimum.
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]flashgraph.VertexID, g.n)
	for v := range labels {
		labels[v] = find(flashgraph.VertexID(v))
	}
	return labels
}

// pageRankIters runs the independent float64 delta-PageRank with the
// engine's defaults (damping 0.85, threshold 1e-7) for up to iters
// iterations.
func (g *refGraph) pageRankIters(iters int) []float64 {
	c := &csr.Graph{N: g.n, Directed: true, OutPtr: g.outPtr, OutAdj: g.outAdj, InPtr: g.inPtr, InAdj: g.inAdj}
	return galois.PageRankDelta(c, iters, 0.85, 1e-7)
}

// prTolerance bounds |engine - reference| per vertex. The engine's
// fixed-point shares truncate below 2^-48 and both sides activate on
// the same 1e-7 threshold, so the two differ by rounding only (about
// 1.5e-9 at scale 16); a missed or extra activation would move a score
// by about 1e-7.
const prTolerance = 1e-8

// maxAbsDiff returns the largest per-vertex difference.
func maxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var m float64
	for i := range a {
		m = max(m, math.Abs(a[i]-b[i]))
	}
	return m
}

// hashLevels fingerprints a BFS level vector.
func hashLevels(level []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, l := range level {
		b[0], b[1], b[2], b[3] = byte(l), byte(l>>8), byte(l>>16), byte(l>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}
