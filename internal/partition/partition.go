// Package partition implements Celeste's task generation (Section IV-A):
// the sky is recursively subdivided into rectangular regions expected to
// contain roughly equal work, estimated from an existing catalog's bright
// pixels — without loading any image data. A second, shifted partition
// covers sources that sit near first-stage boundaries; its tasks run only
// after every first-stage task completes.
package partition

import (
	"math"
	"sort"

	"celeste/internal/geom"
	"celeste/internal/model"
)

// Task is one unit of distributed work: jointly optimize the sources inside
// Box while neighbors outside stay fixed.
type Task struct {
	ID      int
	Stage   int // 0 or 1 (shifted)
	Box     geom.Box
	Sources []int   // indices into the generating catalog
	Work    float64 // estimated active-pixel-visit work
}

// Options controls task generation.
type Options struct {
	// TargetWork is the desired work per task in estimated active pixel
	// visits. The paper sizes tasks at roughly 500 sources; callers should
	// pick TargetWork accordingly for their catalogs.
	TargetWork float64
}

func (o *Options) defaults() {
	if o.TargetWork == 0 {
		o.TargetWork = 2e5
	}
}

// minBoxDeg stops subdivision below this box edge (prevents splitting a
// single bright source's pixels across tasks): 8 pixels' worth at SDSS
// scale.
const minBoxDeg = 8 * 1.1e-4

// SourceWork estimates the active-pixel-visit work of fitting one source:
// the active window area grows with brightness (brighter sources spread
// detectable light wider) and galaxies get a shape-dependent floor,
// multiplied by the number of bands.
func SourceWork(e *model.CatalogEntry) float64 {
	flux := math.Max(e.Flux[model.RefBand], 0.1)
	radiusPx := 3 + 1.5*math.Log1p(flux)
	if e.IsGal() {
		radiusPx += e.GalScale / 1.1e-4 * 2
	}
	if radiusPx > 40 {
		radiusPx = 40
	}
	area := (2*radiusPx + 1) * (2*radiusPx + 1)
	// Newton iterations visit the window tens of times; fold that constant
	// into the estimate so Work approximates total visits.
	const iterFactor = 30
	return area * model.NumBands * iterFactor
}

// Generate produces the stage-0 task list for the catalog over region.
func Generate(catalog []model.CatalogEntry, region geom.Box, opts Options) []Task {
	opts.defaults()
	return generateStage(catalog, region, opts, 0, 0)
}

// GenerateTwoStage produces stage-0 tasks followed by a stage-1 partition
// obtained by rigidly shifting every stage-0 box by half the median task
// dimensions ("creating a second partitioning of the sky by shifting each
// region in the first partition by a fixed amount", Section IV-A). Sources
// near stage-0 borders land in stage-1 task interiors. Boxes at the region's
// minimum edges extend backward and boxes at the maximum edges clip, so the
// shifted boxes still tile the region exactly.
func GenerateTwoStage(catalog []model.CatalogEntry, region geom.Box, opts Options) []Task {
	opts.defaults()
	stage0 := generateStage(catalog, region, opts, 0, 0)

	// Median task dimensions determine the shift.
	var ws, hs []float64
	for _, t := range stage0 {
		ws = append(ws, t.Box.Width())
		hs = append(hs, t.Box.Height())
	}
	shiftRA := median(ws) / 2
	shiftDec := median(hs) / 2

	var stage1 []Task
	for _, t0 := range stage0 {
		b := t0.Box
		nb := b.Shift(shiftRA, shiftDec)
		if b.MinRA <= region.MinRA {
			nb.MinRA = region.MinRA
		}
		if b.MinDec <= region.MinDec {
			nb.MinDec = region.MinDec
		}
		if nb.MaxRA > region.MaxRA {
			nb.MaxRA = region.MaxRA
		}
		if nb.MaxDec > region.MaxDec {
			nb.MaxDec = region.MaxDec
		}
		if nb.Width() <= 0 || nb.Height() <= 0 {
			continue
		}
		stage1 = append(stage1, Task{
			ID: len(stage0) + len(stage1), Stage: 1, Box: nb,
		})
	}
	// Reassign sources and work to the shifted boxes.
	for i := range catalog {
		e := &catalog[i]
		if !region.Contains(e.Pos) {
			continue
		}
		for ti := range stage1 {
			if stage1[ti].Box.Contains(e.Pos) {
				stage1[ti].Sources = append(stage1[ti].Sources, i)
				stage1[ti].Work += SourceWork(e)
				break
			}
		}
	}
	return append(stage0, stage1...)
}

func generateStage(catalog []model.CatalogEntry, region geom.Box, opts Options,
	stage, idBase int) []Task {

	type item struct {
		idx  int
		pos  geom.Pt2
		work float64
	}
	var items []item
	for i := range catalog {
		e := &catalog[i]
		if !region.Contains(e.Pos) {
			continue
		}
		items = append(items, item{idx: i, pos: e.Pos, work: SourceWork(e)})
	}

	var tasks []Task
	var recurse func(box geom.Box, sel []item)
	recurse = func(box geom.Box, sel []item) {
		var total float64
		for _, it := range sel {
			total += it.work
		}
		splittable := box.Width() > 2*minBoxDeg || box.Height() > 2*minBoxDeg
		if total <= opts.TargetWork || len(sel) <= 1 || !splittable {
			t := Task{
				ID: idBase + len(tasks), Stage: stage, Box: box, Work: total,
				Sources: make([]int, len(sel)),
			}
			for i, it := range sel {
				t.Sources[i] = it.idx
			}
			tasks = append(tasks, t)
			return
		}
		// Split the longer axis at the work-weighted median.
		alongRA := box.Width() >= box.Height()
		if box.Width() <= 2*minBoxDeg {
			alongRA = false
		} else if box.Height() <= 2*minBoxDeg {
			alongRA = true
		}
		key := func(it item) float64 {
			if alongRA {
				return it.pos.RA
			}
			return it.pos.Dec
		}
		sort.Slice(sel, func(a, b int) bool { return key(sel[a]) < key(sel[b]) })
		var cum float64
		cut := len(sel)
		for i, it := range sel {
			cum += it.work
			if cum >= total/2 {
				cut = i + 1
				break
			}
		}
		if cut >= len(sel) {
			cut = len(sel) - 1
		}
		if cut < 1 {
			cut = 1
		}
		at := (key(sel[cut-1]) + key(sel[cut])) / 2
		var lo, hi geom.Box
		if alongRA {
			at = clampSplit(at, box.MinRA, box.MaxRA, minBoxDeg)
			lo, hi = box.SplitRA(at)
		} else {
			at = clampSplit(at, box.MinDec, box.MaxDec, minBoxDeg)
			lo, hi = box.SplitDec(at)
		}
		var selLo, selHi []item
		for _, it := range sel {
			if lo.Contains(it.pos) {
				selLo = append(selLo, it)
			} else {
				selHi = append(selHi, it)
			}
		}
		recurse(lo, selLo)
		recurse(hi, selHi)
	}
	recurse(region, items)
	return tasks
}

func clampSplit(at, lo, hi, minBox float64) float64 {
	if at < lo+minBox {
		at = lo + minBox
	}
	if at > hi-minBox {
		at = hi - minBox
	}
	return at
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// WorkStats summarizes a task list's work distribution: total, mean, max,
// and the coefficient of variation — the quantity the recursive partition
// tries to keep small.
func WorkStats(tasks []Task) (total, mean, max, cv float64) {
	if len(tasks) == 0 {
		return
	}
	for _, t := range tasks {
		total += t.Work
		if t.Work > max {
			max = t.Work
		}
	}
	mean = total / float64(len(tasks))
	var ss float64
	for _, t := range tasks {
		d := t.Work - mean
		ss += d * d
	}
	if mean > 0 {
		cv = math.Sqrt(ss/float64(len(tasks))) / mean
	}
	return
}
