package model

import (
	"math"

	"celeste/internal/galprof"
	"celeste/internal/geom"
	"celeste/internal/mathx"
	"celeste/internal/mog"
)

// JacFromWCS returns the world→pixel Jacobian of an affine WCS (the inverse
// of its CD matrix).
func JacFromWCS(w geom.WCS) mog.Jac2 {
	det := w.CD11*w.CD22 - w.CD12*w.CD21
	if det == 0 {
		panic("model: singular WCS")
	}
	inv := 1 / det
	return mog.Jac2{
		A11: w.CD22 * inv, A12: -w.CD12 * inv,
		A21: -w.CD21 * inv, A22: w.CD11 * inv,
	}
}

// SourceMixture returns the pixel-space appearance mixture of a catalog
// entry on an image with the given WCS and PSF: a weighted PSF for a star, a
// profile-convolved mixture for a galaxy (deV fraction mixing the two
// canonical profiles). The mixture is centered at the source's pixel
// position and integrates to 1 over pixels; multiply by band flux × iota to
// get expected counts.
func SourceMixture(e *CatalogEntry, w geom.WCS, psf mog.Mixture) mog.Mixture {
	px, py := w.WorldToPix(e.Pos)
	if !e.IsGal() {
		return psf.Shift(px, py)
	}
	rho := clampUnit(e.GalDevFrac)
	var comb []mog.ProfComp
	for _, pc := range galprof.Exponential() {
		comb = append(comb, mog.ProfComp{Weight: (1 - rho) * pc.Weight, Var: pc.Var})
	}
	for _, pc := range galprof.DeVaucouleurs() {
		comb = append(comb, mog.ProfComp{Weight: rho * pc.Weight, Var: pc.Var})
	}
	m := mog.GalaxyMixture(psf, comb, math.Max(e.GalAxisRatio, 0.05), e.GalAngle,
		math.Max(e.GalScale, 1e-7), JacFromWCS(w))
	return m.Shift(px, py)
}

// RenderRadiusPx returns a pixel radius that contains essentially all of a
// mixture's flux (largest component sigma times nSigma plus mean offset
// from the source position).
//
// AddExpectedCounts renders over the square of this half-width around the
// source, and within it evaluates each component only on its exact-underflow
// interval: the rows, and in each row the columns, where the quadratic form
// q = dᵀΣ⁻¹d is at most underflowQuad, solved in closed form and padded by one
// pixel. Past it the component's term Norm·exp(−q/2) is an exact zero, so the
// intervals skip work without changing a bit.
func RenderRadiusPx(m mog.Mixture, cx, cy, nSigma float64) float64 {
	var r float64
	for _, c := range m {
		// Spectral bound on the largest covariance eigenvalue.
		tr := c.Sxx + c.Syy
		disc := math.Sqrt(math.Max((c.Sxx-c.Syy)*(c.Sxx-c.Syy)+4*c.Sxy*c.Sxy, 0))
		lmax := (tr + disc) / 2
		cand := nSigma*math.Sqrt(lmax) + math.Hypot(c.MuX-cx, c.MuY-cy)
		if cand > r {
			r = cand
		}
	}
	return r
}

// underflowQuad is a quadratic form past which exp(−q/2) is exactly 0 in
// float64: math.Exp returns 0 below −745.14, and −1600/2 = −800 leaves a 7%
// margin for the rounding of q and of the interval bounds.
const underflowQuad = 1600

// renderComp is one mixture component prepared for AddExpectedCounts: its
// determinant and normalisation, and the constants of its exact-underflow
// interval. Row dy = y − MuY spans the columns MuX + slope·dy ± √(hw2·(ry2 −
// dy²)), rows [y0, y1) of the box. A component the closed form cannot be
// trusted on (bounded false) covers the whole box.
type renderComp struct {
	mog.Component
	det, norm       float64
	slope, hw2, ry2 float64
	y0, y1          int
	bounded         bool
}

// AddExpectedCounts accumulates flux·iota·density into the pixel buffer for
// the given band. buf is row-major with stride width. Evaluation is clipped
// to the square box of half-width RenderRadiusPx(m, px, py, nSigma) about the
// source's pixel position (the largest, over components, of nSigma times the
// component's largest σ plus its mean offset), and within the box to each
// component's exact-underflow interval (see RenderRadiusPx). Each row sums
// the components in mixture order into a row buffer before scaling, so every
// pixel gets the same float64 bits as adding flux·iota·m.Eval(x, y) at every
// pixel of the box.
func AddExpectedCounts(buf []float64, width, height int, w geom.WCS,
	psf mog.Mixture, e *CatalogEntry, band int, iota float64, nSigma float64) {

	flux := e.Flux[band]
	if flux <= 0 {
		return
	}
	m := SourceMixture(e, w, psf)
	px, py := w.WorldToPix(e.Pos)
	rad := RenderRadiusPx(m, px, py, nSigma)
	rect := geom.PixRect{
		X0: int(math.Floor(px - rad)), Y0: int(math.Floor(py - rad)),
		X1: int(math.Ceil(px+rad)) + 1, Y1: int(math.Ceil(py+rad)) + 1,
	}.Clip(width, height)
	if rect.Empty() {
		return
	}
	comps := make([]renderComp, 0, len(m))
	for _, c := range m {
		if rc, ok := prepareComp(c, rect); ok {
			comps = append(comps, rc)
		}
	}
	// s sums the components of one row; q holds one component's span of it
	// while its exp(−q/2) terms are computed, first the arguments, then, in
	// place, their exponentials. One allocation serves both.
	rw := rect.Width()
	rows := make([]float64, 2*rw)
	s, q := rows[:rw], rows[rw:]
	amp := flux * iota
	for y := rect.Y0; y < rect.Y1; y++ {
		clear(s)
		fy := float64(y)
		for i := range comps {
			rc := &comps[i]
			if y < rc.y0 || y >= rc.y1 {
				continue
			}
			dy := fy - rc.MuY
			x0, x1 := rect.X0, rect.X1
			if rc.bounded {
				xc := rc.MuX + rc.slope*dy
				h := math.Sqrt(rc.hw2 * math.Max(rc.ry2-dy*dy, 0))
				x0 = clampPix(math.Floor(xc-h)-1, rect.X0, rect.X1)
				x1 = clampPix(math.Ceil(xc+h)+2, rect.X0, rect.X1)
			}
			span := s[x0-rect.X0 : x1-rect.X0]
			e := q[:len(span)]
			for j := range e {
				e[j] = -0.5 * rc.Quad(rc.det, float64(x0+j)-rc.MuX, dy)
			}
			mathx.ExpInto(e)
			for j, v := range e {
				span[j] += rc.norm * v
			}
		}
		row := buf[y*width+rect.X0 : y*width+rect.X1]
		for i, v := range s {
			row[i] += amp * v
		}
	}
}

// prepareComp returns c prepared for rendering over rect, and false when it
// adds an exact zero to every pixel there: a zero normalisation (the deV or
// exponential half of a galaxy at deV fraction 0 or 1), or an underflow
// interval that misses rect.
func prepareComp(c mog.Component, rect geom.PixRect) (renderComp, bool) {
	det := c.Det()
	rc := renderComp{Component: c, det: det, norm: c.Norm(det), y0: rect.Y0, y1: rect.Y1}
	if !closedForm(c, det, rc.norm) {
		return rc, true
	}
	if rc.norm == 0 {
		return rc, false
	}
	rc.bounded = true
	rc.slope = c.Sxy / c.Syy
	rc.hw2 = det / (c.Syy * c.Syy)
	rc.ry2 = underflowQuad * c.Syy
	ry := math.Sqrt(rc.ry2)
	rc.y0 = clampPix(math.Floor(c.MuY-ry)-1, rect.Y0, rect.Y1)
	rc.y1 = clampPix(math.Ceil(c.MuY+ry)+2, rect.Y0, rect.Y1)
	return rc, rc.y0 < rc.y1
}

// closedForm reports whether c's underflow interval holds to rounding: a
// finite normalisation (a skipped term is then Norm·0 = ±0, never NaN),
// variances and means far from underflow and overflow, and a correlation ρ
// with 1 − ρ² > 10⁻⁶ (cancellation in q and det amplifies rounding by at most
// 4/(1 − ρ²)), so q and the interval bounds carry relative errors near 10⁻⁹
// against underflowQuad's 7% margin. No real source comes near these limits;
// a component outside them is evaluated over the whole box.
func closedForm(c mog.Component, det, norm float64) bool {
	const lim = 1e100
	in := func(v float64) bool { return v > 1/lim && v < lim }
	return in(c.Sxx) && in(c.Syy) && det > 1e-6*c.Sxx*c.Syy &&
		math.Abs(c.MuX) < lim && math.Abs(c.MuY) < lim &&
		!math.IsNaN(norm) && !math.IsInf(norm, 0)
}

// clampPix converts a whole-valued pixel bound to an int in [lo, hi].
func clampPix(v float64, lo, hi int) int {
	switch {
	case v <= float64(lo):
		return lo
	case v >= float64(hi):
		return hi
	}
	return int(v)
}
