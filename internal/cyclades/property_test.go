package cyclades

import (
	"testing"

	"celeste/internal/geom"
	"celeste/internal/rng"
)

// The lock-free sweep in internal/core is only sound if Plan's output obeys
// two invariants for every graph, seed, and batch size:
//
//  1. Partition: every vertex appears in exactly one component across all
//     batches (no source silently skipped, none fitted twice per round).
//  2. Isolation: within a batch, no conflict-graph edge crosses component
//     boundaries — two threads never concurrently update sources whose
//     light overlaps.
//
// A violation of either is silent corruption at run time (a torn update or
// a missed fit that tolerance-based accuracy tests would likely absorb), so
// this property test drives randomized graphs through both checks.

// checkPlan verifies the two invariants for one planned schedule.
func checkPlan(t *testing.T, g *Graph, batches []Batch, label string) {
	t.Helper()
	seen := make([]int, len(g.adj)) // how many times each vertex was emitted
	for bi := range batches {
		comp := make(map[int]int) // vertex -> component index, this batch
		for ci, c := range batches[bi].Components {
			if len(c) == 0 {
				t.Fatalf("%s: batch %d has an empty component", label, bi)
			}
			for _, v := range c {
				if v < 0 || v >= len(g.adj) {
					t.Fatalf("%s: batch %d emits out-of-range vertex %d", label, bi, v)
				}
				if prev, dup := comp[v]; dup {
					t.Fatalf("%s: batch %d vertex %d in components %d and %d", label, bi, v, prev, ci)
				}
				comp[v] = ci
				seen[v]++
			}
		}
		// Isolation: any edge with both ends sampled this batch must be
		// intra-component.
		for v, cv := range comp {
			for _, w := range g.adj[v] {
				if cw, in := comp[w]; in && cw != cv {
					t.Fatalf("%s: batch %d splits edge (%d,%d) across components %d and %d",
						label, bi, v, w, cv, cw)
				}
			}
		}
		// Connectivity: each component must be connected within the sampled
		// subgraph — otherwise Assign serializes unrelated work and thread
		// balance quietly degrades.
		for ci, c := range batches[bi].Components {
			if !connectedInSample(g, c, comp, ci) {
				t.Fatalf("%s: batch %d component %d is not connected in the sample", label, bi, ci)
			}
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("%s: vertex %d emitted %d times across batches", label, v, n)
		}
	}
}

// connectedInSample BFSes component ci restricted to sampled vertices.
func connectedInSample(g *Graph, c []int, comp map[int]int, ci int) bool {
	if len(c) <= 1 {
		return true
	}
	visited := map[int]bool{c[0]: true}
	frontier := []int{c[0]}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, w := range g.adj[v] {
			if cw, in := comp[w]; in && cw == ci && !visited[w] {
				visited[w] = true
				frontier = append(frontier, w)
			}
		}
	}
	return len(visited) == len(c)
}

// TestPlanPropertyRandomGraphs drives random Erdős–Rényi-style conflict
// graphs of varying density through Plan at varying batch sizes.
func TestPlanPropertyRandomGraphs(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		r := rng.New(uint64(trial)*0x9e3779b97f4a7c15 + 7)
		n := 1 + r.Intn(120)
		g := newGraph(n)
		// Edge density sweeps from near-empty to near-complete; parallel
		// edges are deliberately injected (BuildConflictGraph never makes
		// them, but the Graph API allows them and Plan must tolerate them).
		p := r.Float64() * r.Float64()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < p {
					g.AddEdge(i, j)
					if r.Float64() < 0.05 {
						g.AddEdge(i, j)
					}
				}
			}
		}
		batchSize := 0
		switch r.Intn(4) {
		case 0:
			batchSize = 1
		case 1:
			batchSize = 1 + r.Intn(n)
		case 2:
			batchSize = n + r.Intn(10) // oversized: one batch of everything
		case 3:
			batchSize = 0 // Plan's "single batch" convention
		}
		batches := new(Planner).Plan(g, rng.New(uint64(trial)+99), batchSize)
		checkPlan(t, g, batches, "random graph")
	}
}

// TestPlanPropertyGeometricGraphs exercises the production construction:
// conflict graphs built from source positions and influence radii, the
// exact shape internal/core feeds Plan.
func TestPlanPropertyGeometricGraphs(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		r := rng.New(uint64(trial)*31 + 5)
		n := 1 + r.Intn(80)
		pos := make([]geom.Pt2, n)
		radii := make([]float64, n)
		for i := range pos {
			pos[i] = geom.Pt2{RA: r.Float64() * 0.1, Dec: r.Float64() * 0.1}
			radii[i] = r.Float64() * 0.012 // overlapping to isolated regimes
		}
		g := new(Graph)
		new(Planner).BuildConflictGraph(g, pos, radii)
		for _, batchSize := range []int{1, n/3 + 1, n} {
			batches := new(Planner).Plan(g, rng.New(uint64(trial)*7+1), batchSize)
			checkPlan(t, g, batches, "geometric graph")
		}
	}
}
