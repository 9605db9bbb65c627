// Package geom provides the sky and pixel geometry used across Celeste:
// points in world coordinates (degrees of right ascension and declination),
// axis-aligned sky boxes, pixel rectangles, and an affine world↔pixel
// coordinate system (a linearized WCS, adequate for the small fields a task
// covers — SDSS frames span ~0.2 degrees, where the tangent-plane
// approximation is far below a milliarcsecond of error).
package geom

import (
	"fmt"
	"math"
)

// Pt2 is a point in world coordinates, in degrees.
type Pt2 struct {
	RA, Dec float64
}

// Box is an axis-aligned region of sky: [MinRA, MaxRA) x [MinDec, MaxDec).
type Box struct {
	MinRA, MinDec, MaxRA, MaxDec float64
}

// NewBox returns the box spanning the given corners.
func NewBox(minRA, minDec, maxRA, maxDec float64) Box {
	return Box{MinRA: minRA, MinDec: minDec, MaxRA: maxRA, MaxDec: maxDec}
}

// Width returns the RA extent in degrees.
func (b Box) Width() float64 { return b.MaxRA - b.MinRA }

// Height returns the Dec extent in degrees.
func (b Box) Height() float64 { return b.MaxDec - b.MinDec }

// Area returns the box area in square degrees (flat approximation).
func (b Box) Area() float64 { return b.Width() * b.Height() }

// Center returns the box center.
func (b Box) Center() Pt2 {
	return Pt2{RA: (b.MinRA + b.MaxRA) / 2, Dec: (b.MinDec + b.MaxDec) / 2}
}

// Contains reports whether p lies in the half-open box.
func (b Box) Contains(p Pt2) bool {
	return p.RA >= b.MinRA && p.RA < b.MaxRA && p.Dec >= b.MinDec && p.Dec < b.MaxDec
}

// Intersects reports whether two boxes overlap with positive area.
func (b Box) Intersects(o Box) bool {
	return b.MinRA < o.MaxRA && o.MinRA < b.MaxRA &&
		b.MinDec < o.MaxDec && o.MinDec < b.MaxDec
}

// Expand returns the box grown by margin degrees on every side.
func (b Box) Expand(margin float64) Box {
	return Box{
		MinRA: b.MinRA - margin, MinDec: b.MinDec - margin,
		MaxRA: b.MaxRA + margin, MaxDec: b.MaxDec + margin,
	}
}

// Shift returns the box translated by (dRA, dDec).
func (b Box) Shift(dRA, dDec float64) Box {
	return Box{
		MinRA: b.MinRA + dRA, MinDec: b.MinDec + dDec,
		MaxRA: b.MaxRA + dRA, MaxDec: b.MaxDec + dDec,
	}
}

// SplitRA splits the box at the given RA into left and right halves.
func (b Box) SplitRA(at float64) (Box, Box) {
	l, r := b, b
	l.MaxRA = at
	r.MinRA = at
	return l, r
}

// SplitDec splits the box at the given Dec into bottom and top halves.
func (b Box) SplitDec(at float64) (Box, Box) {
	lo, hi := b, b
	lo.MaxDec = at
	hi.MinDec = at
	return lo, hi
}

func (b Box) String() string {
	return fmt.Sprintf("[%.4f,%.4f]x[%.4f,%.4f]", b.MinRA, b.MaxRA, b.MinDec, b.MaxDec)
}

// PixRect is a half-open pixel rectangle [X0, X1) x [Y0, Y1).
type PixRect struct {
	X0, Y0, X1, Y1 int
}

// Width returns the rectangle width in pixels.
func (r PixRect) Width() int { return r.X1 - r.X0 }

// Height returns the rectangle height in pixels.
func (r PixRect) Height() int { return r.Y1 - r.Y0 }

// Empty reports whether the rectangle has no pixels.
func (r PixRect) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// Clip returns r clipped to [0,w) x [0,h).
func (r PixRect) Clip(w, h int) PixRect {
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > w {
		r.X1 = w
	}
	if r.Y1 > h {
		r.Y1 = h
	}
	return r
}

// WCS is an affine world↔pixel mapping:
//
//	RA  = RA0  + CD11*(x - X0) + CD12*(y - Y0)
//	Dec = Dec0 + CD21*(x - X0) + CD22*(y - Y0)
//
// where (x, y) are zero-based pixel coordinates of the pixel center.
type WCS struct {
	RA0, Dec0              float64 // world coordinates of reference pixel
	X0, Y0                 float64 // reference pixel
	CD11, CD12, CD21, CD22 float64 // degrees per pixel
}

// NewSimpleWCS returns a WCS with square pixels of the given scale
// (degrees/pixel), no rotation, referenced so that pixel (0, 0) maps to
// (minRA, minDec).
func NewSimpleWCS(minRA, minDec, scale float64) WCS {
	return WCS{RA0: minRA, Dec0: minDec, CD11: scale, CD22: scale}
}

// PixToWorld maps pixel coordinates to world coordinates.
func (w WCS) PixToWorld(x, y float64) Pt2 {
	dx, dy := x-w.X0, y-w.Y0
	return Pt2{
		RA:  w.RA0 + w.CD11*dx + w.CD12*dy,
		Dec: w.Dec0 + w.CD21*dx + w.CD22*dy,
	}
}

// WorldToPix maps world coordinates to pixel coordinates.
func (w WCS) WorldToPix(p Pt2) (x, y float64) {
	det := w.CD11*w.CD22 - w.CD12*w.CD21
	if det == 0 {
		panic("geom: singular WCS")
	}
	dra, ddec := p.RA-w.RA0, p.Dec-w.Dec0
	dx := (w.CD22*dra - w.CD12*ddec) / det
	dy := (-w.CD21*dra + w.CD11*ddec) / det
	return w.X0 + dx, w.Y0 + dy
}

// PixScale returns the mean linear pixel scale in degrees/pixel
// (the square root of the Jacobian determinant magnitude).
func (w WCS) PixScale() float64 {
	det := w.CD11*w.CD22 - w.CD12*w.CD21
	return math.Sqrt(math.Abs(det))
}

// Footprint returns the world bounding box of a width x height image.
func (w WCS) Footprint(width, height int) Box {
	var minRA, minDec = math.Inf(1), math.Inf(1)
	var maxRA, maxDec = math.Inf(-1), math.Inf(-1)
	corners := [4][2]float64{
		{-0.5, -0.5},
		{float64(width) - 0.5, -0.5},
		{-0.5, float64(height) - 0.5},
		{float64(width) - 0.5, float64(height) - 0.5},
	}
	for _, c := range corners {
		p := w.PixToWorld(c[0], c[1])
		minRA = math.Min(minRA, p.RA)
		maxRA = math.Max(maxRA, p.RA)
		minDec = math.Min(minDec, p.Dec)
		maxDec = math.Max(maxDec, p.Dec)
	}
	return Box{MinRA: minRA, MinDec: minDec, MaxRA: maxRA, MaxDec: maxDec}
}

// Dist returns the flat-sky distance between two points in degrees.
func Dist(a, b Pt2) float64 {
	return math.Hypot(a.RA-b.RA, a.Dec-b.Dec)
}
