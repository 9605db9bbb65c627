package cyclades

import (
	"testing"
	"testing/quick"

	"celeste/internal/geom"
	"celeste/internal/rng"
)

func randomInstance(seed uint64, n int) ([]geom.Pt2, []float64, *Graph) {
	r := rng.New(seed)
	pos := make([]geom.Pt2, n)
	radii := make([]float64, n)
	for i := range pos {
		pos[i] = geom.Pt2{RA: r.Float64() * 0.05, Dec: r.Float64() * 0.05}
		radii[i] = 0.0005 + r.Float64()*0.001
	}
	g := new(Graph)
	new(Planner).BuildConflictGraph(g, pos, radii)
	return pos, radii, g
}

// newGraph returns an empty conflict graph on n vertices.
func newGraph(n int) *Graph {
	g := new(Graph)
	g.Reset(n)
	return g
}

func TestConflictGraphMatchesBruteForce(t *testing.T) {
	pos, radii, g := randomInstance(1, 200)
	// Brute force pairwise check.
	want := make(map[[2]int]bool)
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if geom.Dist(pos[i], pos[j]) < radii[i]+radii[j] {
				want[[2]int{i, j}] = true
			}
		}
	}
	got := make(map[[2]int]bool)
	for v := 0; v < len(g.adj); v++ {
		for _, w := range g.adj[v] {
			a, b := v, w
			if a > b {
				a, b = b, a
			}
			got[[2]int{a, b}] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("edge count: got %d, want %d", len(got), len(want))
	}
	for e := range want {
		if !got[e] {
			t.Fatalf("missing edge %v", e)
		}
	}
}

func TestPlanCoversEveryVertexOnce(t *testing.T) {
	f := func(seed uint64) bool {
		_, _, g := randomInstance(seed%1000, 150)
		r := rng.New(seed)
		batches := new(Planner).Plan(g, r, 40)
		seen := make([]int, len(g.adj))
		for _, b := range batches {
			for _, c := range b.Components {
				for _, v := range c {
					seen[v]++
				}
			}
		}
		for _, s := range seen {
			if s != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestComponentsAreConflictClosedWithinBatch(t *testing.T) {
	// Within one batch, two sampled vertices that conflict must be in the
	// same component — that is Cyclades' core guarantee.
	_, _, g := randomInstance(7, 300)
	r := rng.New(7)
	batches := new(Planner).Plan(g, r, 75)
	for bi, b := range batches {
		comp := make(map[int]int)
		for ci, c := range b.Components {
			for _, v := range c {
				comp[v] = ci
			}
		}
		for v, cv := range comp {
			for _, w := range g.adj[v] {
				if cw, ok := comp[w]; ok && cw != cv {
					t.Fatalf("batch %d: conflicting %d and %d in different components", bi, v, w)
				}
			}
		}
	}
}

func TestComponentsAreConnected(t *testing.T) {
	// Each reported component must be internally connected in the induced
	// subgraph (otherwise load balancing would be needlessly coarse).
	_, _, g := randomInstance(13, 250)
	r := rng.New(13)
	batches := new(Planner).Plan(g, r, 60)
	for _, b := range batches {
		for _, c := range b.Components {
			if len(c) == 1 {
				continue
			}
			inComp := make(map[int]bool, len(c))
			for _, v := range c {
				inComp[v] = true
			}
			// BFS from c[0] restricted to the component.
			visited := map[int]bool{c[0]: true}
			queue := []int{c[0]}
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range g.adj[v] {
					if inComp[w] && !visited[w] {
						visited[w] = true
						queue = append(queue, w)
					}
				}
			}
			if len(visited) != len(c) {
				t.Fatalf("component of size %d not connected (reached %d)", len(c), len(visited))
			}
		}
	}
}

func TestManyComponentsFromConnectedGraph(t *testing.T) {
	// The method's premise: even if the conflict graph is connected, a
	// random sample typically shatters into many components. Build a path
	// graph (connected) and sample a third of it.
	n := 300
	g := newGraph(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	r := rng.New(3)
	batches := new(Planner).Plan(g, r, n/3)
	if len(batches[0].Components) < 20 {
		t.Errorf("first batch has only %d components; expected the sample to shatter",
			len(batches[0].Components))
	}
}

func TestAssignBalancesLoad(t *testing.T) {
	b := &Batch{}
	// 1 big component (10) and 30 singletons.
	big := make([]int, 10)
	for i := range big {
		big[i] = i
	}
	b.Components = append(b.Components, big)
	for i := 0; i < 30; i++ {
		b.Components = append(b.Components, []int{100 + i})
	}
	queues := new(Planner).Assign(b, 4)
	loads := make([]int, 4)
	for t4, q := range queues {
		for _, c := range q {
			loads[t4] += len(c)
		}
	}
	// Total 40 over 4 threads: perfect is 10 each; LPT must be exact here.
	for i, l := range loads {
		if l != 10 {
			t.Errorf("thread %d load = %d, want 10 (loads %v)", i, l, loads)
		}
	}
}

func TestAssignPreservesComponents(t *testing.T) {
	_, _, g := randomInstance(21, 120)
	r := rng.New(21)
	batches := new(Planner).Plan(g, r, 0) // single batch
	queues := new(Planner).Assign(&batches[0], 8)
	var total int
	seen := make(map[int]bool)
	for _, q := range queues {
		for _, c := range q {
			for _, v := range c {
				if seen[v] {
					t.Fatalf("vertex %d assigned twice", v)
				}
				seen[v] = true
				total++
			}
		}
	}
	if total != len(g.adj) {
		t.Errorf("assigned %d of %d vertices", total, len(g.adj))
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	g := newGraph(0)
	r := rng.New(1)
	if batches := new(Planner).Plan(g, r, 10); len(batches) != 0 {
		t.Errorf("empty graph produced %d batches", len(batches))
	}
	g1 := newGraph(1)
	batches := new(Planner).Plan(g1, r, 10)
	size := 0
	for _, b := range batches {
		for _, c := range b.Components {
			size += len(c)
		}
	}
	if len(batches) != 1 || size != 1 {
		t.Errorf("singleton plan wrong: %+v", batches)
	}
}
