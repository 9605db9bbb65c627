package catserve

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
)

// mkEntries builds a deterministic random catalog. Most positions fall inside
// the unit box; a few land outside to exercise edge-cell clamping.
func mkEntries(n int, seed int64) []model.CatalogEntry {
	rng := rand.New(rand.NewSource(seed))
	out := make([]model.CatalogEntry, n)
	for i := range out {
		out[i].ID = i
		out[i].Pos = geom.Pt2{RA: rng.Float64(), Dec: rng.Float64()}
		if i%37 == 0 { // stragglers outside the nominal footprint
			out[i].Pos.RA += 1.5
		}
		out[i].ProbGal = rng.Float64()
		for b := 0; b < model.NumBands; b++ {
			out[i].Flux[b] = rng.Float64() * 1e4
		}
	}
	return out
}

func unitStore(entries []model.CatalogEntry, opts Options) *Store {
	return NewStore(geom.NewBox(0, 0, 1, 1), entries, opts)
}

func idsOf(entries []model.CatalogEntry) []int {
	ids := make([]int, len(entries))
	for i := range entries {
		ids[i] = entries[i].ID
	}
	sort.Ints(ids)
	return ids
}

func sameIDs(t *testing.T, got, want []int, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d entries, want %d\ngot  %v\nwant %v", what, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: id mismatch at %d: got %v want %v", what, i, got, want)
		}
	}
}

func bruteCone(entries []model.CatalogEntry, c geom.Pt2, r float64) []int {
	var ids []int
	for i := range entries {
		if geom.Dist(c, entries[i].Pos) <= r {
			ids = append(ids, entries[i].ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func bruteBox(entries []model.CatalogEntry, b geom.Box) []int {
	var ids []int
	for i := range entries {
		if b.Contains(entries[i].Pos) {
			ids = append(ids, entries[i].ID)
		}
	}
	sort.Ints(ids)
	return ids
}

func TestConeDifferential(t *testing.T) {
	entries := mkEntries(500, 1)
	s := unitStore(entries, Options{})
	snap := s.Snapshot()
	rng := rand.New(rand.NewSource(2))
	for q := 0; q < 200; q++ {
		c := geom.Pt2{RA: rng.Float64()*1.4 - 0.2, Dec: rng.Float64()*1.4 - 0.2}
		r := rng.Float64() * 0.3
		sameIDs(t, idsOf(snap.Cone(c, r)), bruteCone(entries, c, r), "cone")
	}
	// Degenerate radii: zero hits only exact positions, huge hits everything.
	sameIDs(t, idsOf(snap.Cone(entries[3].Pos, 0)), bruteCone(entries, entries[3].Pos, 0), "cone r=0")
	if got := len(snap.Cone(geom.Pt2{RA: 0.5, Dec: 0.5}, 100)); got != len(entries) {
		t.Fatalf("huge cone returned %d of %d entries", got, len(entries))
	}
}

func TestBoxDifferential(t *testing.T) {
	entries := mkEntries(500, 3)
	s := unitStore(entries, Options{})
	snap := s.Snapshot()
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 200; q++ {
		x0, y0 := rng.Float64()*1.4-0.2, rng.Float64()*1.4-0.2
		b := geom.NewBox(x0, y0, x0+rng.Float64()*0.5, y0+rng.Float64()*0.5)
		sameIDs(t, idsOf(snap.Box(b)), bruteBox(entries, b), "box")
	}
	if got := snap.Box(geom.NewBox(5, 5, 6, 6)); len(got) != 0 {
		t.Fatalf("empty-region box returned %d entries", len(got))
	}
}

func TestBrightestDifferential(t *testing.T) {
	entries := mkEntries(400, 5)
	s := unitStore(entries, Options{})
	snap := s.Snapshot()
	for band := 0; band < model.NumBands; band++ {
		ranked := append([]model.CatalogEntry(nil), entries...)
		sort.SliceStable(ranked, func(a, b int) bool { return ranked[a].Flux[band] > ranked[b].Flux[band] })
		for _, n := range []int{1, 7, 100, len(entries), len(entries) + 50} {
			got := snap.BrightestN(n, band)
			wantLen := n
			if wantLen > len(entries) {
				wantLen = len(entries)
			}
			if len(got) != wantLen {
				t.Fatalf("band %d n=%d: got %d entries, want %d", band, n, len(got), wantLen)
			}
			for i := range got {
				if got[i].ID != ranked[i].ID {
					t.Fatalf("band %d n=%d: rank %d got id %d (flux %g), want id %d (flux %g)",
						band, n, i, got[i].ID, got[i].Flux[band], ranked[i].ID, ranked[i].Flux[band])
				}
			}
		}
	}
	if got := snap.BrightestN(0, 0); got != nil {
		t.Fatalf("BrightestN(0) = %v, want nil", got)
	}
	if got := snap.BrightestN(3, model.NumBands); got != nil {
		t.Fatalf("BrightestN bad band = %v, want nil", got)
	}
}

func TestApplyRCUIsolation(t *testing.T) {
	entries := mkEntries(300, 6)
	s := unitStore(entries, Options{})
	old := s.Snapshot()
	if old.Version() != 1 || old.Count() != len(entries) {
		t.Fatalf("initial snapshot version=%d count=%d", old.Version(), old.Count())
	}

	probe := geom.Pt2{RA: 0.5, Dec: 0.5}
	oldIDs := idsOf(old.Cone(probe, 0.25))

	// Refresh a third of the sources with brighter fluxes (positions kept).
	var idx []int
	var ents []model.CatalogEntry
	for i := 0; i < len(entries); i += 3 {
		e := entries[i]
		for b := range e.Flux {
			e.Flux[b] *= 10
		}
		idx = append(idx, i)
		ents = append(ents, e)
	}
	s.Apply(idx, ents)

	cur := s.Snapshot()
	if cur.Version() != 2 {
		t.Fatalf("version after Apply = %d, want 2", cur.Version())
	}
	if cur.Count() != len(entries) {
		t.Fatalf("count after Apply = %d, want %d", cur.Count(), len(entries))
	}
	// The old snapshot still answers from pre-update state.
	sameIDs(t, idsOf(old.Cone(probe, 0.25)), oldIDs, "old snapshot after Apply")
	for _, e := range old.Cone(probe, 0.25) {
		if e.ID%3 == 0 && e.Flux[0] != entries[e.ID].Flux[0] {
			t.Fatalf("old snapshot shows updated flux for source %d", e.ID)
		}
	}
	// The new snapshot serves the refreshed entries.
	seen := 0
	for _, e := range cur.Cone(geom.Pt2{RA: 0.5, Dec: 0.5}, 10) {
		if e.ID%3 == 0 {
			seen++
			if e.Flux[2] != entries[e.ID].Flux[2]*10 {
				t.Fatalf("source %d flux not refreshed: got %g want %g", e.ID, e.Flux[2], entries[e.ID].Flux[2]*10)
			}
		}
	}
	if want := (len(entries) + 2) / 3; seen != want {
		t.Fatalf("saw %d refreshed sources, want %d", seen, want)
	}
}

func TestApplyCellMigration(t *testing.T) {
	entries := mkEntries(200, 7)
	s := unitStore(entries, Options{})

	// Drag source 11 across the footprint.
	moved := entries[11]
	oldPos := moved.Pos
	moved.Pos = geom.Pt2{RA: math.Mod(oldPos.RA+0.43, 1), Dec: math.Mod(oldPos.Dec+0.37, 1)}
	s.Apply([]int{11}, []model.CatalogEntry{moved})

	snap := s.Snapshot()
	if snap.Count() != len(entries) {
		t.Fatalf("count after migration = %d, want %d", snap.Count(), len(entries))
	}
	for _, e := range snap.Cone(oldPos, 0) {
		if e.ID == 11 {
			t.Fatalf("source 11 still found at its old position")
		}
	}
	found := false
	for _, e := range snap.Cone(moved.Pos, 0) {
		if e.ID == 11 {
			found = true
		}
	}
	if !found {
		t.Fatalf("source 11 not found at its new position")
	}
	// Differential check: the whole index is still exact after migration.
	mirror := append([]model.CatalogEntry(nil), entries...)
	mirror[11] = moved
	rng := rand.New(rand.NewSource(8))
	for q := 0; q < 50; q++ {
		c := geom.Pt2{RA: rng.Float64(), Dec: rng.Float64()}
		r := rng.Float64() * 0.4
		sameIDs(t, idsOf(snap.Cone(c, r)), bruteCone(mirror, c, r), "cone after migration")
	}
}

func TestApplyEdgeCases(t *testing.T) {
	entries := mkEntries(50, 9)
	s := unitStore(entries, Options{})
	v := s.Snapshot().Version()

	s.Apply(nil, nil) // empty batch: no new version
	if got := s.Snapshot().Version(); got != v {
		t.Fatalf("empty Apply bumped version to %d", got)
	}

	// Out-of-range source indices are ignored, in-range ones still land.
	e := entries[0]
	e.Flux[0] = 9e9
	s.Apply([]int{-1, len(entries) + 5, 0}, []model.CatalogEntry{entries[1], entries[2], e})
	snap := s.Snapshot()
	if snap.Count() != len(entries) {
		t.Fatalf("count changed after out-of-range Apply: %d", snap.Count())
	}
	got := snap.Cone(e.Pos, 0)
	ok := false
	for i := range got {
		if got[i].ID == 0 && got[i].Flux[0] == 9e9 {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("in-range update lost among out-of-range indices: %v", got)
	}
}

func TestEmptyAndDegenerateStore(t *testing.T) {
	s := NewStore(geom.Box{}, nil, Options{}) // zero-area bounds fall back to the unit box
	snap := s.Snapshot()
	if snap.Count() != 0 {
		t.Fatalf("empty store count = %d", snap.Count())
	}
	if got := snap.Cone(geom.Pt2{}, 10); len(got) != 0 {
		t.Fatalf("empty store cone returned %v", got)
	}
	if got := snap.Box(geom.NewBox(-1, -1, 1, 1)); len(got) != 0 {
		t.Fatalf("empty store box returned %v", got)
	}
	if got := snap.BrightestN(5, 0); got != nil {
		t.Fatalf("empty store brightest returned %v", got)
	}
	if b := s.Bounds(); b.Width() <= 0 || b.Height() <= 0 {
		t.Fatalf("degenerate bounds not widened: %+v", b)
	}
}

func TestOutOfBoundsClamping(t *testing.T) {
	entries := mkEntries(300, 10) // every 37th entry sits outside the footprint
	s := unitStore(entries, Options{})
	snap := s.Snapshot()
	for i := range entries {
		if i%37 != 0 {
			continue
		}
		hit := false
		for _, e := range snap.Cone(entries[i].Pos, 1e-12) {
			if e.ID == i {
				hit = true
			}
		}
		if !hit {
			t.Fatalf("out-of-bounds source %d at %+v not retrievable", i, entries[i].Pos)
		}
	}
}

// TestConcurrentApplyAndQuery drives readers against a store being updated;
// run with -race this verifies the RCU publication discipline.
func TestConcurrentApplyAndQuery(t *testing.T) {
	entries := mkEntries(200, 11)
	s := unitStore(entries, Options{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				c := geom.Pt2{RA: rng.Float64(), Dec: rng.Float64()}
				n := len(snap.Cone(c, 0.2))
				if n > snap.Count() {
					t.Errorf("cone returned %d > count %d", n, snap.Count())
					return
				}
				snap.BrightestN(5, model.RefBand)
			}
		}(int64(g))
	}
	for round := 0; round < 200; round++ {
		i := round % len(entries)
		e := entries[i]
		e.Flux[model.RefBand] = float64(round)
		s.Apply([]int{i}, []model.CatalogEntry{e})
	}
	close(stop)
	wg.Wait()
	if got := s.Snapshot().Version(); got != 201 {
		t.Fatalf("final version = %d, want 201", got)
	}
}

func TestDepthScalesWithCatalog(t *testing.T) {
	small := unitStore(mkEntries(10, 12), Options{})
	big := unitStore(mkEntries(20000, 13), Options{})
	if small.depth >= big.depth {
		t.Fatalf("depth did not grow with catalog size: small=%d big=%d", small.depth, big.depth)
	}
	if big.depth > maxDepth {
		t.Fatalf("depth %d exceeds maxDepth", big.depth)
	}
}
