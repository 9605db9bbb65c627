// Package catserve is the catalog-as-a-service layer: a spatial index over
// (ra, dec) that holds a run's catalog as immutable per-cell blocks of
// posterior summaries and answers cone / box / brightest-N queries while
// inference is still sweeping.
//
// The index is a fixed-depth quadtree over the survey footprint. Readers
// never lock: every query runs against an immutable Snapshot reached through
// one atomic pointer load (read-copy-update). A single updater — fed by
// core's task-commit hook, batched per checkpoint interval — folds fresh
// posterior summaries into copies of only the touched cells, shares every
// untouched subtree with the previous snapshot, and publishes the new root
// with one atomic store. A query that started against the old snapshot keeps
// reading the old cells unperturbed; the garbage collector retires them when
// the last reader drops out.
//
// Routing (which leaf holds a source) is grid arithmetic on the position,
// but pruning uses per-node tight bounding boxes aggregated from the actual
// entries, so queries stay exact even for a fitted position that drifts
// outside the nominal footprint (it is clamped into an edge cell, and that
// cell's tight box grows to cover it).
package catserve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"celeste/internal/geom"
	"celeste/internal/model"
)

// The grid is sized so the mean occupied leaf cell holds about
// targetPerCell entries, and the quadtree is at most maxDepth deep
// (4^maxDepth cells).
const (
	targetPerCell = 32
	maxDepth      = 8
)

// Options tunes index construction.
type Options struct {
	// CacheCap bounds the number of serialized responses each snapshot's
	// query cache retains. Default 16384; negative disables caching.
	CacheCap int
}

func (o *Options) defaults() {
	if o.CacheCap == 0 {
		o.CacheCap = 16384
	}
}

// Store is the live catalog index: an RCU head pointer plus the updater-side
// bookkeeping needed to fold incremental catalog updates into fresh cells.
type Store struct {
	bounds       geom.Box
	depth        int
	side         int32 // 1 << depth cells per axis
	cellW, cellH float64
	cacheCap     int

	// mu serializes updaters (Apply); readers never take it.
	mu sync.Mutex
	// loc maps source index -> leaf cell key, so an update that moves a
	// fitted position across a cell boundary removes the entry from its old
	// cell. Owned by the updater under mu.
	loc []int32

	snap atomic.Pointer[Snapshot]
}

// Snapshot is one immutable version of the catalog index. All query methods
// are safe for unlimited concurrent use and never observe later updates.
type Snapshot struct {
	version uint64
	count   int
	root    *node
	cache   *queryCache
}

// node is a quadtree node. Internal nodes hold four children (nil = empty
// quadrant); leaves hold the entries routed to one grid cell, sorted by
// source index. box/count/maxFlux are tight aggregates over the node's
// actual entries, used for pruning and best-first search.
type node struct {
	box     geom.Box
	count   int
	maxFlux [model.NumBands]float64

	kids [4]*node
	leaf bool
	idx  []int32
	ent  []model.CatalogEntry
}

// NewStore indexes an initial catalog (typically the init catalog that seeds
// inference — entries are then refreshed in place as tasks commit). The
// bounds should cover the survey footprint; positions outside are clamped
// into edge cells. Source i of every later Apply must correspond to
// entries[i] of this initial catalog.
func NewStore(bounds geom.Box, entries []model.CatalogEntry, opts Options) *Store {
	opts.defaults()
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		bounds = geom.NewBox(0, 0, 1, 1)
	}
	depth := 1
	for depth < maxDepth && (1<<(2*depth))*targetPerCell < len(entries) {
		depth++
	}
	s := &Store{
		bounds:   bounds,
		depth:    depth,
		side:     1 << depth,
		cellW:    bounds.Width() / float64(int(1)<<depth),
		cellH:    bounds.Height() / float64(int(1)<<depth),
		cacheCap: opts.CacheCap,
		loc:      make([]int32, len(entries)),
	}
	// Bucket entries per cell, then assemble the tree bottom-up.
	buckets := make(map[int32]*cellEdit, len(entries)/targetPerCell+1)
	for i := range entries {
		key := s.keyFor(entries[i].Pos)
		s.loc[i] = key
		b := buckets[key]
		if b == nil {
			b = &cellEdit{key: key}
			buckets[key] = b
		}
		b.setIdx = append(b.setIdx, int32(i))
		b.setEnt = append(b.setEnt, entries[i])
	}
	edits := make([]*cellEdit, 0, len(buckets))
	for _, b := range buckets {
		edits = append(edits, b)
	}
	root := s.rebuild(nil, 0, 0, 0, edits)
	s.snap.Store(&Snapshot{version: 1, count: countOf(root), root: root, cache: newQueryCache(s.cacheCap)})
	return s
}

// Bounds returns the indexed footprint.
func (s *Store) Bounds() geom.Box { return s.bounds }

// Snapshot returns the current immutable index version: one atomic load, no
// lock. The snapshot stays fully queryable forever; later Applies publish
// new versions without disturbing it.
func (s *Store) Snapshot() *Snapshot { return s.snap.Load() }

// Apply folds a batch of refreshed posterior summaries into the index:
// entry ents[k] replaces source idx[k]. Touched cells are rebuilt as fresh
// copies, untouched subtrees are shared with the previous snapshot, and the
// result is published as a new version. A source whose fitted position
// crossed a cell boundary migrates between cells. Apply calls are
// serialized; readers are never blocked.
func (s *Store) Apply(idx []int, ents []model.CatalogEntry) {
	if len(idx) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.snap.Load()
	edits := make(map[int32]*cellEdit)
	edit := func(key int32) *cellEdit {
		e := edits[key]
		if e == nil {
			e = &cellEdit{key: key}
			edits[key] = e
		}
		return e
	}
	for k, i := range idx {
		if i < 0 || i >= len(s.loc) {
			continue // unknown source: the catalog size is fixed per run
		}
		newKey := s.keyFor(ents[k].Pos)
		if oldKey := s.loc[i]; oldKey != newKey {
			edit(oldKey).removed = append(edit(oldKey).removed, int32(i))
			s.loc[i] = newKey
		}
		e := edit(newKey)
		e.setIdx = append(e.setIdx, int32(i))
		e.setEnt = append(e.setEnt, ents[k])
	}
	list := make([]*cellEdit, 0, len(edits))
	for _, e := range edits {
		list = append(list, e)
	}
	root := s.rebuild(old.root, 0, 0, 0, list)
	s.snap.Store(&Snapshot{
		version: old.version + 1,
		count:   countOf(root),
		root:    root,
		cache:   newQueryCache(s.cacheCap),
	})
}

// keyFor routes a position to its leaf cell, clamping out-of-bounds
// positions into the nearest edge cell.
func (s *Store) keyFor(p geom.Pt2) int32 {
	cx := int32((p.RA - s.bounds.MinRA) / s.cellW)
	cy := int32((p.Dec - s.bounds.MinDec) / s.cellH)
	if cx < 0 {
		cx = 0
	} else if cx >= s.side {
		cx = s.side - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= s.side {
		cy = s.side - 1
	}
	return cy*s.side + cx
}

// cellEdit is one leaf cell's pending changes: sources leaving the cell and
// sources set (replaced or inserted) with their fresh entries. The cell
// coordinates derive from key.
type cellEdit struct {
	key     int32
	removed []int32
	setIdx  []int32
	setEnt  []model.CatalogEntry
}

// rebuild path-copies the subtree rooted at old (covering the 2^(depth-lv)
// cell square at (cx0, cy0)) with the given edits applied, sharing every
// untouched child with the previous snapshot. A subtree left empty collapses
// to nil.
func (s *Store) rebuild(old *node, lv int, cx0, cy0 int32, edits []*cellEdit) *node {
	if len(edits) == 0 {
		return old
	}
	if lv == s.depth {
		return s.rebuildLeaf(old, edits)
	}
	half := s.side >> (lv + 1)
	var byKid [4][]*cellEdit
	for _, e := range edits {
		kx, ky := e.key%s.side, e.key/s.side
		k := 0
		if kx >= cx0+half {
			k |= 1
		}
		if ky >= cy0+half {
			k |= 2
		}
		byKid[k] = append(byKid[k], e)
	}
	n := &node{}
	any := false
	for k := 0; k < 4; k++ {
		var oldKid *node
		if old != nil {
			oldKid = old.kids[k]
		}
		kx0, ky0 := cx0, cy0
		if k&1 != 0 {
			kx0 += half
		}
		if k&2 != 0 {
			ky0 += half
		}
		kid := s.rebuild(oldKid, lv+1, kx0, ky0, byKid[k])
		n.kids[k] = kid
		if kid != nil {
			any = true
		}
	}
	if !any {
		return nil
	}
	n.aggregateFromKids()
	return n
}

// rebuildLeaf applies one cell's edits to a copy of the old leaf. Multiple
// edit records for the same cell are merged; within a batch a later set for
// the same source wins.
func (s *Store) rebuildLeaf(old *node, edits []*cellEdit) *node {
	removed := make(map[int32]bool)
	set := make(map[int32]model.CatalogEntry)
	var order []int32
	for _, e := range edits {
		for _, i := range e.removed {
			removed[i] = true
		}
		for k, i := range e.setIdx {
			if _, dup := set[i]; !dup {
				order = append(order, i)
			}
			set[i] = e.setEnt[k]
			delete(removed, i) // a set in the same batch supersedes a removal
		}
	}
	var n node
	n.leaf = true
	if old != nil {
		for k, i := range old.idx {
			if removed[i] {
				continue
			}
			if e, ok := set[i]; ok {
				n.idx = append(n.idx, i)
				n.ent = append(n.ent, e)
				delete(set, i)
				continue
			}
			n.idx = append(n.idx, i)
			n.ent = append(n.ent, old.ent[k])
		}
	}
	for _, i := range order { // fresh inserts, in first-set order
		if e, ok := set[i]; ok {
			n.idx = append(n.idx, i)
			n.ent = append(n.ent, e)
		}
	}
	if len(n.idx) == 0 {
		return nil
	}
	sort.Sort(&leafSorter{&n})
	n.aggregateFromEntries()
	return &n
}

// leafSorter keeps idx and ent parallel while sorting by source index.
type leafSorter struct{ n *node }

func (s *leafSorter) Len() int           { return len(s.n.idx) }
func (s *leafSorter) Less(i, j int) bool { return s.n.idx[i] < s.n.idx[j] }
func (s *leafSorter) Swap(i, j int) {
	s.n.idx[i], s.n.idx[j] = s.n.idx[j], s.n.idx[i]
	s.n.ent[i], s.n.ent[j] = s.n.ent[j], s.n.ent[i]
}

func (n *node) aggregateFromEntries() {
	n.count = len(n.ent)
	first := true
	for i := range n.ent {
		e := &n.ent[i]
		if first {
			n.box = geom.Box{MinRA: e.Pos.RA, MinDec: e.Pos.Dec, MaxRA: e.Pos.RA, MaxDec: e.Pos.Dec}
			first = false
		} else {
			n.box.MinRA = math.Min(n.box.MinRA, e.Pos.RA)
			n.box.MinDec = math.Min(n.box.MinDec, e.Pos.Dec)
			n.box.MaxRA = math.Max(n.box.MaxRA, e.Pos.RA)
			n.box.MaxDec = math.Max(n.box.MaxDec, e.Pos.Dec)
		}
		for b := 0; b < model.NumBands; b++ {
			if e.Flux[b] > n.maxFlux[b] {
				n.maxFlux[b] = e.Flux[b]
			}
		}
	}
}

func (n *node) aggregateFromKids() {
	n.count = 0
	first := true
	for _, k := range n.kids {
		if k == nil {
			continue
		}
		n.count += k.count
		if first {
			n.box = k.box
			first = false
		} else {
			n.box.MinRA = math.Min(n.box.MinRA, k.box.MinRA)
			n.box.MinDec = math.Min(n.box.MinDec, k.box.MinDec)
			n.box.MaxRA = math.Max(n.box.MaxRA, k.box.MaxRA)
			n.box.MaxDec = math.Max(n.box.MaxDec, k.box.MaxDec)
		}
		for b := 0; b < model.NumBands; b++ {
			if k.maxFlux[b] > n.maxFlux[b] {
				n.maxFlux[b] = k.maxFlux[b]
			}
		}
	}
}

func countOf(n *node) int {
	if n == nil {
		return 0
	}
	return n.count
}

// Version returns the snapshot's monotonically increasing version number.
func (sn *Snapshot) Version() uint64 { return sn.version }

// Count returns the number of indexed entries.
func (sn *Snapshot) Count() int { return sn.count }

// Box returns every entry whose position lies in the half-open box, in
// deterministic (cell, source-index) order.
func (sn *Snapshot) Box(b geom.Box) []model.CatalogEntry {
	var out []model.CatalogEntry
	walkBox(sn.root, b, &out)
	return out
}

func walkBox(n *node, b geom.Box, out *[]model.CatalogEntry) {
	if n == nil || !boxTouches(n.box, b) {
		return
	}
	if n.leaf {
		for i := range n.ent {
			if b.Contains(n.ent[i].Pos) {
				*out = append(*out, n.ent[i])
			}
		}
		return
	}
	for _, k := range n.kids {
		walkBox(k, b, out)
	}
}

// boxTouches is a closed-interval overlap test: tight boxes are closed (a
// single entry yields a zero-area box), so the half-open Intersects would
// wrongly prune them.
func boxTouches(tight, q geom.Box) bool {
	return tight.MinRA <= q.MaxRA && q.MinRA <= tight.MaxRA &&
		tight.MinDec <= q.MaxDec && q.MinDec <= tight.MaxDec
}

// Cone returns every entry within radius degrees of center (flat-sky
// Euclidean distance, matching geom.Dist), in deterministic order.
func (sn *Snapshot) Cone(center geom.Pt2, radius float64) []model.CatalogEntry {
	var out []model.CatalogEntry
	walkCone(sn.root, center, radius, &out)
	return out
}

func walkCone(n *node, c geom.Pt2, r float64, out *[]model.CatalogEntry) {
	if n == nil || boxDist(n.box, c) > r {
		return
	}
	if n.leaf {
		for i := range n.ent {
			if geom.Dist(c, n.ent[i].Pos) <= r {
				*out = append(*out, n.ent[i])
			}
		}
		return
	}
	for _, k := range n.kids {
		walkCone(k, c, r, out)
	}
}

// boxDist is the distance from a point to the nearest point of a box (0 if
// inside).
func boxDist(b geom.Box, p geom.Pt2) float64 {
	dx := math.Max(math.Max(b.MinRA-p.RA, 0), p.RA-b.MaxRA)
	dy := math.Max(math.Max(b.MinDec-p.Dec, 0), p.Dec-b.MaxDec)
	return math.Hypot(dx, dy)
}

// BrightestN returns the n entries with the largest flux in the given band,
// brightest first (ties broken by source order), searched best-first through
// the per-node flux aggregates so dim subtrees are never visited.
func (sn *Snapshot) BrightestN(n, band int) []model.CatalogEntry {
	if n <= 0 || band < 0 || band >= model.NumBands || sn.root == nil {
		return nil
	}
	// Frontier: max-heap of nodes by flux upper bound. Results: min-heap of
	// the best n entries seen. A frontier node whose bound cannot beat the
	// current n-th best is pruned — with the heap ordering, that ends the
	// search.
	type cand struct {
		flux float64
		ent  *model.CatalogEntry
	}
	var frontier nodeHeap
	frontier.push(sn.root, sn.root.maxFlux[band])
	var best []cand
	worst := func() float64 { return best[0].flux }
	for len(frontier) > 0 {
		nd := frontier.pop()
		if len(best) == n && nd.maxFlux[band] < worst() {
			break
		}
		if !nd.leaf {
			for _, k := range nd.kids {
				if k != nil {
					frontier.push(k, k.maxFlux[band])
				}
			}
			continue
		}
		for i := range nd.ent {
			f := nd.ent[i].Flux[band]
			if len(best) < n {
				best = append(best, cand{f, &nd.ent[i]})
				// Sift up the min-heap.
				for j := len(best) - 1; j > 0; {
					p := (j - 1) / 2
					if best[p].flux <= best[j].flux {
						break
					}
					best[p], best[j] = best[j], best[p]
					j = p
				}
				continue
			}
			if f > worst() {
				best[0] = cand{f, &nd.ent[i]}
				// Sift down.
				for j := 0; ; {
					l, r := 2*j+1, 2*j+2
					m := j
					if l < n && best[l].flux < best[m].flux {
						m = l
					}
					if r < n && best[r].flux < best[m].flux {
						m = r
					}
					if m == j {
						break
					}
					best[j], best[m] = best[m], best[j]
					j = m
				}
			}
		}
	}
	out := make([]model.CatalogEntry, len(best))
	order := make([]int, len(best))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return best[order[a]].flux > best[order[b]].flux })
	for i, j := range order {
		out[i] = *best[j].ent
	}
	return out
}

// nodeHeap is a max-heap of quadtree nodes keyed by the flux upper bound
// the caller chose at push time.
type nodeHeap []heapItem

type heapItem struct {
	key float64
	n   *node
}

func (h *nodeHeap) push(n *node, key float64) {
	s := append(*h, heapItem{key, n})
	for j := len(s) - 1; j > 0; {
		p := (j - 1) / 2
		if s[p].key >= s[j].key {
			break
		}
		s[p], s[j] = s[j], s[p]
		j = p
	}
	*h = s
}

func (h *nodeHeap) pop() *node {
	s := *h
	top := s[0].n
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	for j := 0; ; {
		l, r := 2*j+1, 2*j+2
		m := j
		if l < len(s) && s[l].key > s[m].key {
			m = l
		}
		if r < len(s) && s[r].key > s[m].key {
			m = r
		}
		if m == j {
			break
		}
		s[j], s[m] = s[m], s[j]
		j = m
	}
	*h = s
	return top
}
