package cyclades

import (
	"celeste/internal/geom"
	"celeste/internal/rng"
	"celeste/internal/sliceutil"
)

// Planner owns every buffer conflict-graph construction and batch planning
// need, so a worker can plan sweep after sweep without heap allocations in
// steady state. One Planner serves one goroutine; the batches returned by
// Plan (and the queues returned by Assign) alias the Planner's storage and
// are valid until its next Plan (respectively Assign) call.
type Planner struct {
	// Graph construction.
	keys  []uint64
	order []int

	// Plan.
	perm     []int
	inSample []int
	local    []int // vertex -> local index within the current sample
	ufParent []int
	ufRank   []int
	compIdx  []int // union-find root (local) -> component slot
	arena    []int // component contents; all batches' components partition it
	comps    [][]int
	batches  []Batch

	// Assign.
	sorted []int
	loads  []int
	queues [][][]int
}

// Reset prepares a graph for reuse: n vertices, all adjacency retained but
// emptied.
func (g *Graph) Reset(n int) {
	if cap(g.adj) < n {
		g.adj = make([][]int, n)
	}
	g.adj = g.adj[:n]
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
}

// Adj returns the adjacency list of v (owned by the graph; do not modify).
func (g *Graph) Adj(v int) []int { return g.adj[v] }

// BuildConflictGraph constructs the conflict graph into g (reusing its
// storage): sources conflict when closer than the sum of their influence
// radii. The spatial hash uses sorted cell buckets instead of a map so
// repeated builds allocate nothing once the Planner is warm, and the result
// is deterministic.
func (pl *Planner) BuildConflictGraph(g *Graph, pos []geom.Pt2, radii []float64) {
	n := len(pos)
	g.Reset(n)
	var maxR float64
	for _, r := range radii {
		if r > maxR {
			maxR = r
		}
	}
	if maxR <= 0 || n == 0 {
		return
	}
	cell := 2 * maxR

	// Pack each source's grid cell into a sortable key. The bias keeps
	// coordinates positive so the packed ordering matches (cx, cy) order.
	const bias = int64(1) << 30
	key := func(p geom.Pt2) uint64 {
		cx := int64(p.RA/cell) + bias
		cy := int64(p.Dec/cell) + bias
		return uint64(cx)<<32 | uint64(uint32(cy))
	}
	pl.keys = sliceutil.Grow(pl.keys, n)
	pl.order = sliceutil.Grow(pl.order, n)
	for i, p := range pos {
		pl.keys[i] = key(p)
		pl.order[i] = i
	}
	// Insertion sort by (key, index): n is small per region and nearly
	// sorted rebuilds are common; no allocation either way.
	ord, keys := pl.order, pl.keys
	for i := 1; i < n; i++ {
		v := ord[i]
		kv := keys[v]
		j := i - 1
		for j >= 0 && keys[ord[j]] > kv {
			ord[j+1] = ord[j]
			j--
		}
		ord[j+1] = v
	}
	// bucket returns the ord-range of the given cell key (inlined binary
	// search: a sort.Search closure would allocate on every call).
	bucket := func(k uint64) (int, int) {
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if keys[ord[mid]] < k {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		hi = lo
		for hi < n && keys[ord[hi]] == k {
			hi++
		}
		return lo, hi
	}

	for i, p := range pos {
		cx := int64(p.RA/cell) + bias
		cy := int64(p.Dec/cell) + bias
		for dx := int64(-1); dx <= 1; dx++ {
			for dy := int64(-1); dy <= 1; dy++ {
				lo, hi := bucket(uint64(cx+dx)<<32 | uint64(uint32(cy+dy)))
				for bi := lo; bi < hi; bi++ {
					j := ord[bi]
					if j <= i {
						continue
					}
					if geom.Dist(p, pos[j]) < radii[i]+radii[j] {
						g.AddEdge(i, j)
					}
				}
			}
		}
	}
}

// Plan samples all vertices without replacement in rounds of batchSize and
// splits each round into connected components of the induced subgraph,
// appending component contents in sample order. Every vertex appears in
// exactly one component across all batches. batchSize <= 0 means one single
// batch of everything. The returned batches alias pl's storage.
func (pl *Planner) Plan(g *Graph, r *rng.Source, batchSize int) []Batch {
	n := len(g.adj)
	if batchSize <= 0 || batchSize > n {
		batchSize = n
	}
	pl.perm = r.PermInto(sliceutil.Grow(pl.perm, n))
	pl.inSample = growIntsZero(pl.inSample, n)
	pl.local = sliceutil.Grow(pl.local, n)
	pl.arena = sliceutil.Grow(pl.arena, n)[:0]
	pl.batches = pl.batches[:0]
	pl.comps = pl.comps[:0]
	arena := pl.arena

	for start := 0; start < n; start += batchSize {
		end := start + batchSize
		if end > n {
			end = n
		}
		sample := pl.perm[start:end]
		round := start/batchSize + 1
		for li, v := range sample {
			pl.inSample[v] = round
			pl.local[v] = li
		}
		// Union-find over the sampled vertices.
		m := len(sample)
		pl.ufParent = sliceutil.Grow(pl.ufParent, m)
		pl.ufRank = growIntsZero(pl.ufRank, m)
		for i := 0; i < m; i++ {
			pl.ufParent[i] = i
		}
		for li, v := range sample {
			for _, w := range g.adj[v] {
				if pl.inSample[w] == round {
					pl.union(li, pl.local[w])
				}
			}
		}
		// Component sizes by root, then slot assignment in sample order.
		pl.compIdx = sliceutil.Grow(pl.compIdx, m)
		sizes := pl.compIdx // reuse: first pass counts per root
		for i := 0; i < m; i++ {
			sizes[i] = 0
		}
		for li := range sample {
			sizes[pl.find(li)]++
		}
		compStart := len(pl.comps)
		for li := range sample {
			root := pl.find(li)
			if sizes[root] > 0 {
				// First member: carve the component's arena slice.
				sz := sizes[root]
				sizes[root] = -(len(pl.comps) + 1) // slot, encoded negative
				base := len(arena)
				arena = arena[:base+sz]
				pl.comps = append(pl.comps, arena[base:base:base+sz])
			}
			slot := -sizes[pl.find(li)] - 1
			pl.comps[slot] = append(pl.comps[slot], sample[li])
		}
		pl.batches = append(pl.batches, Batch{Components: pl.comps[compStart:len(pl.comps):len(pl.comps)]})
	}
	pl.arena = arena
	return pl.batches
}

func (pl *Planner) find(x int) int {
	for pl.ufParent[x] != x {
		pl.ufParent[x] = pl.ufParent[pl.ufParent[x]]
		x = pl.ufParent[x]
	}
	return x
}

func (pl *Planner) union(a, b int) {
	ra, rb := pl.find(a), pl.find(b)
	if ra == rb {
		return
	}
	if pl.ufRank[ra] < pl.ufRank[rb] {
		ra, rb = rb, ra
	}
	pl.ufParent[rb] = ra
	if pl.ufRank[ra] == pl.ufRank[rb] {
		pl.ufRank[ra]++
	}
}

// Assign distributes a batch's components over nThreads queues, longest
// component first (LPT scheduling), so thread loads stay balanced even when
// one component is large. The queues alias pl's storage (valid until the
// next Assign call).
func (pl *Planner) Assign(b *Batch, nThreads int) [][][]int {
	if cap(pl.queues) < nThreads {
		pl.queues = make([][][]int, nThreads)
	}
	pl.queues = pl.queues[:nThreads]
	for t := range pl.queues {
		pl.queues[t] = pl.queues[t][:0]
	}
	pl.loads = growIntsZero(pl.loads, nThreads)
	nc := len(b.Components)
	pl.sorted = sliceutil.Grow(pl.sorted, nc)
	for i := range pl.sorted {
		pl.sorted[i] = i
	}
	// Descending size, insertion sort (counts are small).
	for i := 1; i < nc; i++ {
		c := pl.sorted[i]
		j := i - 1
		for j >= 0 && len(b.Components[pl.sorted[j]]) < len(b.Components[c]) {
			pl.sorted[j+1] = pl.sorted[j]
			j--
		}
		pl.sorted[j+1] = c
	}
	for _, ci := range pl.sorted {
		best := 0
		for t := 1; t < nThreads; t++ {
			if pl.loads[t] < pl.loads[best] {
				best = t
			}
		}
		pl.queues[best] = append(pl.queues[best], b.Components[ci])
		pl.loads[best] += len(b.Components[ci])
	}
	return pl.queues
}

func growIntsZero(s []int, n int) []int {
	s = sliceutil.Grow(s, n)
	for i := range s {
		s[i] = 0
	}
	return s
}
