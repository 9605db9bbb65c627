package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBoxContains(t *testing.T) {
	b := NewBox(10, 20, 11, 21)
	if !b.Contains(Pt2{10.5, 20.5}) {
		t.Error("center should be contained")
	}
	if b.Contains(Pt2{11, 20.5}) {
		t.Error("MaxRA edge is exclusive")
	}
	if !b.Contains(Pt2{10, 20}) {
		t.Error("Min corner is inclusive")
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox(0, 0, 2, 2)
	b := NewBox(1, 1, 3, 3)
	if !a.Intersects(b) {
		t.Error("overlapping boxes should intersect")
	}
	c := NewBox(5, 5, 6, 6)
	if a.Intersects(c) {
		t.Error("disjoint boxes should not intersect")
	}
	// Touching boxes have zero-area overlap.
	d := NewBox(2, 0, 4, 2)
	if a.Intersects(d) {
		t.Error("touching boxes should not count as intersecting")
	}
}

func TestBoxSplits(t *testing.T) {
	b := NewBox(0, 0, 4, 2)
	l, r := b.SplitRA(1)
	if l.Width() != 1 || r.Width() != 3 {
		t.Errorf("SplitRA widths: %v, %v", l.Width(), r.Width())
	}
	lo, hi := b.SplitDec(0.5)
	if lo.Height() != 0.5 || hi.Height() != 1.5 {
		t.Errorf("SplitDec heights: %v, %v", lo.Height(), hi.Height())
	}
	if lo.Area()+hi.Area() != b.Area() {
		t.Error("split does not preserve area")
	}
}

func TestBoxShiftExpand(t *testing.T) {
	b := NewBox(0, 0, 1, 1)
	s := b.Shift(0.5, -0.5)
	if s.MinRA != 0.5 || s.MinDec != -0.5 {
		t.Errorf("Shift = %v", s)
	}
	if s.Area() != b.Area() {
		t.Error("shift changed area")
	}
	e := b.Expand(0.25)
	if e.Width() != 1.5 || e.Height() != 1.5 {
		t.Errorf("Expand = %v", e)
	}
}

func TestWCSRoundTrip(t *testing.T) {
	w := WCS{
		RA0: 150, Dec0: 30, X0: 1024, Y0: 745,
		CD11: 1.1e-4, CD12: 2e-6, CD21: -1.5e-6, CD22: 1.05e-4,
	}
	f := func(xr, yr float64) bool {
		x := math.Mod(math.Abs(xr), 2048)
		y := math.Mod(math.Abs(yr), 1489)
		p := w.PixToWorld(x, y)
		x2, y2 := w.WorldToPix(p)
		return math.Abs(x2-x) < 1e-8 && math.Abs(y2-y) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimpleWCS(t *testing.T) {
	w := NewSimpleWCS(100, -5, 0.001)
	p := w.PixToWorld(0, 0)
	if p.RA != 100 || p.Dec != -5 {
		t.Errorf("origin maps to %v", p)
	}
	p = w.PixToWorld(10, 20)
	if math.Abs(p.RA-100.01) > 1e-12 || math.Abs(p.Dec-(-4.98)) > 1e-12 {
		t.Errorf("pixel (10,20) maps to %v", p)
	}
	if math.Abs(w.PixScale()-0.001) > 1e-15 {
		t.Errorf("PixScale = %v", w.PixScale())
	}
}

func TestFootprint(t *testing.T) {
	w := NewSimpleWCS(10, 10, 0.01)
	fp := w.Footprint(100, 50)
	// Image spans pixel centers 0..99 => world 10 - 0.005 to 10 + 0.995.
	if math.Abs(fp.MinRA-(10-0.005)) > 1e-12 {
		t.Errorf("MinRA = %v", fp.MinRA)
	}
	if math.Abs(fp.MaxRA-(10+0.995)) > 1e-12 {
		t.Errorf("MaxRA = %v", fp.MaxRA)
	}
	if math.Abs(fp.MaxDec-(10+0.495)) > 1e-12 {
		t.Errorf("MaxDec = %v", fp.MaxDec)
	}
}

func TestPixRectClip(t *testing.T) {
	r := PixRect{X0: -5, Y0: -5, X1: 200, Y1: 300}.Clip(100, 150)
	if r.X0 != 0 || r.Y0 != 0 || r.X1 != 100 || r.Y1 != 150 {
		t.Errorf("clip = %+v", r)
	}
	if r.Width() != 100 || r.Height() != 150 {
		t.Errorf("dims = %dx%d", r.Width(), r.Height())
	}
}

func TestDist(t *testing.T) {
	if got := Dist(Pt2{0, 0}, Pt2{3, 4}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}
