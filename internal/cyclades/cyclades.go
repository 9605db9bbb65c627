// Package cyclades implements the Cyclades approach to conflict-free
// asynchronous machine learning (Pan et al., NIPS 2016) as Celeste uses it
// (Section IV-D): within one sky-region task, threads run block coordinate
// ascent over light sources, and two sources conflict when their light
// overlaps. Each round samples sources without replacement, partitions the
// sample into connected components of the conflict graph restricted to the
// sample, and assigns whole components to threads — so no two threads ever
// update conflicting blocks concurrently, without any locking.
package cyclades

// Graph is an undirected conflict graph over n vertices.
type Graph struct {
	adj [][]int
}

// AddEdge marks vertices a and b as conflicting.
func (g *Graph) AddEdge(a, b int) {
	if a == b {
		return
	}
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// Batch is one round's worth of work: connected components of the sampled
// subgraph. Components are units of assignment; sources within a component
// must be processed by the same thread (serially).
type Batch struct {
	Components [][]int
}
