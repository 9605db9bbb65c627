// Package cyclades implements the Cyclades approach to conflict-free
// asynchronous machine learning (Pan et al., NIPS 2016) as Celeste uses it
// (Section IV-D): within one sky-region task, threads run block coordinate
// ascent over light sources, and two sources conflict when their light
// overlaps. Each round samples sources without replacement, partitions the
// sample into connected components of the conflict graph restricted to the
// sample, and assigns whole components to threads — so no two threads ever
// update conflicting blocks concurrently, without any locking.
package cyclades

import (
	"celeste/internal/geom"
	"celeste/internal/rng"
)

// Graph is an undirected conflict graph over n vertices.
type Graph struct {
	n   int
	adj [][]int
}

// NewGraph returns an empty conflict graph on n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// AddEdge marks vertices a and b as conflicting.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// BuildConflictGraph constructs the conflict graph for light sources:
// sources conflict when closer than the sum of their influence radii
// (their light reaches common pixels). radii are in degrees. Hot paths that
// rebuild graphs per sweep should hold a Planner and use its
// BuildConflictGraph, which reuses all storage.
func BuildConflictGraph(pos []geom.Pt2, radii []float64) *Graph {
	g := NewGraph(len(pos))
	new(Planner).BuildConflictGraph(g, pos, radii)
	return g
}

// Batch is one round's worth of work: connected components of the sampled
// subgraph. Components are units of assignment; sources within a component
// must be processed by the same thread (serially).
type Batch struct {
	Components [][]int
}

// Size returns the total number of sources in the batch.
func (b *Batch) Size() int {
	var s int
	for _, c := range b.Components {
		s += len(c)
	}
	return s
}

// Plan samples all n vertices without replacement in rounds of batchSize and
// splits each round's sample into connected components of the induced
// subgraph. Every vertex appears in exactly one component across all
// batches. batchSize <= 0 means one single batch of everything. Hot paths
// should hold a Planner and use its Plan, which reuses all storage.
func Plan(g *Graph, r *rng.Source, batchSize int) []Batch {
	return new(Planner).Plan(g, r, batchSize)
}

// Assign distributes a batch's components over nThreads queues, longest
// component first (LPT scheduling), so thread loads stay balanced even when
// one component is large.
func Assign(b *Batch, nThreads int) [][][]int {
	return new(Planner).Assign(b, nThreads)
}
