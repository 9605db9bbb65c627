package partition

import (
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/rng"
)

func syntheticCatalog(seed uint64, n int, region geom.Box) []model.CatalogEntry {
	r := rng.New(seed)
	priors := model.DefaultPriors()
	out := make([]model.CatalogEntry, 0, n)
	for i := 0; i < n; i++ {
		// Cluster half the sources in one corner so density is non-uniform,
		// which is exactly the situation that rules out uniform tiling.
		var pos geom.Pt2
		if i%2 == 0 {
			pos = geom.Pt2{
				RA:  region.MinRA + r.Float64()*region.Width()/4,
				Dec: region.MinDec + r.Float64()*region.Height()/4,
			}
		} else {
			pos = geom.Pt2{
				RA:  region.MinRA + r.Float64()*region.Width(),
				Dec: region.MinDec + r.Float64()*region.Height(),
			}
		}
		out = append(out, priors.Sample(r, i, pos))
	}
	return out
}

func TestGenerateCoversAllSourcesExactlyOnce(t *testing.T) {
	region := geom.NewBox(0, 0, 0.2, 0.2)
	cat := syntheticCatalog(1, 2000, region)
	tasks := Generate(cat, region, Options{TargetWork: 3e6})
	seen := make(map[int]int)
	for _, task := range tasks {
		for _, s := range task.Sources {
			seen[s]++
		}
	}
	if len(seen) != len(cat) {
		t.Fatalf("covered %d of %d sources", len(seen), len(cat))
	}
	for s, c := range seen {
		if c != 1 {
			t.Fatalf("source %d in %d tasks", s, c)
		}
	}
	// Sources must lie inside their task boxes.
	for _, task := range tasks {
		for _, s := range task.Sources {
			if !task.Box.Contains(cat[s].Pos) {
				t.Fatalf("source %d outside its task box", s)
			}
		}
	}
}

func TestTasksAreDisjointAndTileRegion(t *testing.T) {
	region := geom.NewBox(0, 0, 0.2, 0.1)
	cat := syntheticCatalog(2, 1500, region)
	tasks := Generate(cat, region, Options{TargetWork: 2e6})
	var area float64
	for i, a := range tasks {
		area += a.Box.Area()
		for j := i + 1; j < len(tasks); j++ {
			if a.Box.Intersects(tasks[j].Box) {
				t.Fatalf("tasks %d and %d overlap: %v vs %v", i, j, a.Box, tasks[j].Box)
			}
		}
	}
	if math.Abs(area-region.Area())/region.Area() > 1e-9 {
		t.Errorf("task areas sum to %v, region is %v", area, region.Area())
	}
}

func TestWorkBalance(t *testing.T) {
	region := geom.NewBox(0, 0, 0.3, 0.3)
	cat := syntheticCatalog(3, 4000, region)
	target := 3e6
	tasks := Generate(cat, region, Options{TargetWork: target})
	if len(tasks) < 4 {
		t.Fatalf("only %d tasks", len(tasks))
	}
	_, mean, max, cv := WorkStats(tasks)
	// Work-weighted median splitting should keep the spread moderate even
	// with the clustered population.
	if max > 3*target {
		t.Errorf("max task work %v exceeds 3x target %v", max, target)
	}
	if cv > 1.2 {
		t.Errorf("work CV = %v; partition is too unbalanced", cv)
	}
	_ = mean
	// Compare against uniform tiling with the same task count: the
	// recursive partition must be no worse.
	uniform := uniformTilingCV(cat, region, len(tasks))
	if cv > uniform*1.05 {
		t.Errorf("recursive partition CV %v worse than uniform tiling CV %v", cv, uniform)
	}
}

func uniformTilingCV(cat []model.CatalogEntry, region geom.Box, nTasks int) float64 {
	side := int(math.Ceil(math.Sqrt(float64(nTasks))))
	works := make([]float64, side*side)
	for i := range cat {
		e := &cat[i]
		cx := int((e.Pos.RA - region.MinRA) / region.Width() * float64(side))
		cy := int((e.Pos.Dec - region.MinDec) / region.Height() * float64(side))
		if cx >= side {
			cx = side - 1
		}
		if cy >= side {
			cy = side - 1
		}
		works[cy*side+cx] += SourceWork(e)
	}
	var mean float64
	for _, w := range works {
		mean += w
	}
	mean /= float64(len(works))
	var ss float64
	for _, w := range works {
		ss += (w - mean) * (w - mean)
	}
	return math.Sqrt(ss/float64(len(works))) / mean
}

func TestTwoStageShiftsBoundaries(t *testing.T) {
	region := geom.NewBox(0, 0, 0.2, 0.2)
	cat := syntheticCatalog(4, 2500, region)
	tasks := GenerateTwoStage(cat, region, Options{TargetWork: 3e6})
	var s0, s1 []Task
	for _, task := range tasks {
		if task.Stage == 0 {
			s0 = append(s0, task)
		} else {
			s1 = append(s1, task)
		}
	}
	if len(s0) == 0 || len(s1) == 0 {
		t.Fatalf("stages: %d and %d tasks", len(s0), len(s1))
	}
	// For most sources near a stage-0 vertical boundary, the distance to the
	// nearest stage-1 vertical boundary should be larger.
	nearB := func(p geom.Pt2, ts []Task) float64 {
		best := math.Inf(1)
		for _, task := range ts {
			if !task.Box.Contains(p) {
				continue
			}
			d := math.Min(p.RA-task.Box.MinRA, task.Box.MaxRA-p.RA)
			d = math.Min(d, math.Min(p.Dec-task.Box.MinDec, task.Box.MaxDec-p.Dec))
			return d
		}
		return best
	}
	var improved, nearBoundary int
	for i := range cat {
		d0 := nearB(cat[i].Pos, s0)
		if d0 > 5*1.1e-4 { // only sources within ~5 px of a boundary
			continue
		}
		nearBoundary++
		if nearB(cat[i].Pos, s1) > d0 {
			improved++
		}
	}
	if nearBoundary == 0 {
		t.Skip("no boundary sources in this draw")
	}
	frac := float64(improved) / float64(nearBoundary)
	if frac < 0.6 {
		t.Errorf("only %.0f%% of boundary sources improved by the shifted partition", frac*100)
	}
}

func TestSourceWorkMonotoneInFlux(t *testing.T) {
	mk := func(flux float64) model.CatalogEntry {
		var e model.CatalogEntry
		e.Flux[model.RefBand] = flux
		return e
	}
	prev := 0.0
	for _, f := range []float64{0.1, 1, 10, 100, 1000} {
		e := mk(f)
		w := SourceWork(&e)
		if w <= prev {
			t.Fatalf("work not increasing at flux %v", f)
		}
		prev = w
	}
}

func TestEmptyCatalog(t *testing.T) {
	region := geom.NewBox(0, 0, 1, 1)
	tasks := Generate(nil, region, Options{})
	if len(tasks) != 1 {
		t.Fatalf("expected 1 empty task, got %d", len(tasks))
	}
	if tasks[0].Work != 0 || len(tasks[0].Sources) != 0 {
		t.Errorf("empty task: %+v", tasks[0])
	}
}
