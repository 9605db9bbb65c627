package mog

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/sliceutil"
)

// This file implements the first-order row sweeps — pass A of the
// moment-contracted derivative tiers (see rowmoment.go). Both record, per
// component, the bare exponential E = exp(-q/2) over its active span into the
// lanes' E slab, which the moment pass re-reads instead of re-running the
// recurrence; both share SweepRow's active intervals, exp-free recurrence and
// bitwise qCutoff decisions.
//
//   - SweepRowGrad fills the value and gradient lanes: the full tier's pass A
//     (its per-pixel outer products and brightness vector moments need the
//     total gradient at every pixel).
//   - SweepRowE fills the value lanes only: the gradient tier's pass A.

// SweepRowGrad evaluates the star and galaxy spatial densities with first
// derivatives only for one pixel row, writing the value and gradient lanes of
// l (which it zeroes first) and the E slab. The Hessian lanes are left
// untouched and must be treated as stale by the caller. Lane i matches the
// value and gradient of EvalStar(dxs[i], dy) / EvalGal(dxs[i], dy) exactly as
// SweepRow does, with identical qCutoff truncation decisions.
func (e *Evaluator) SweepRowGrad(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	if len(dxs) != w {
		panic("mog: SweepRowGrad dxs length does not match lane width")
	}
	clearFloats(l.StarV)
	clearFloats(l.StarG)
	clearFloats(l.GalV)
	clearFloats(l.GalG)
	l.growE(len(e.Star) + len(e.Gal))
	if w == 0 {
		return
	}
	e.sweepStarGrad(l, dxs, dy)
	e.sweepGalGrad(l, dxs, dy)
}

// SweepRowE evaluates the star and galaxy spatial density values for one
// pixel row, writing the value lanes of l (which it zeroes first) and the E
// slab; the gradient lanes are left stale. Values are bitwise those of
// SweepRowGrad.
func (e *Evaluator) SweepRowE(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	if len(dxs) != w {
		panic("mog: SweepRowE dxs length does not match lane width")
	}
	clearFloats(l.StarV)
	clearFloats(l.GalV)
	l.growE(len(e.Star) + len(e.Gal))
	if w == 0 {
		return
	}
	sweepCompsE(l, 0, e.Star, l.StarV, dxs, dy)
	sweepCompsE(l, len(e.Star), e.Gal, l.GalV, dxs, dy)
}

// growE sizes the E slab and the span table for n components at the current
// width, marking every component inactive.
func (l *RowLanes) growE(n int) {
	l.e = sliceutil.Grow(l.e, n*l.w)
	l.span = sliceutil.Grow(l.span, n)
	for i := range l.span {
		l.span[i] = rowSpan{0, -1}
	}
}

// sweepCompsE accumulates the density values of comps into dst and records
// each component's exponential row; slab rows start at component index base.
func sweepCompsE(l *RowLanes, base int, comps []DualComp, dst, dxs []float64, dy float64) {
	w := l.w
	for ci := range comps {
		c := &comps[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		d2 := dy - c.MuY
		s22 := d2 * d2
		i0, i1, ok := rowInterval(dxs, q11, &c.Geom, c.MuX, d2)
		if !ok {
			continue
		}
		l.span[base+ci] = rowSpan{i0, i1}
		erow := l.e[(base+ci)*w : (base+ci+1)*w]

		var ev, rr float64
		n := 0
		for i := i0; i <= i1; i++ {
			d1 := dxs[i] - c.MuX
			s11, s12 := d1*d1, d1*d2
			qv := q11*s11 + 2*q12*s12 + q22*s22
			if n == 0 {
				ev = math.Exp(-0.5 * qv)
				rr = math.Exp(-0.5 * (q11*(2*d1+1) + 2*q12*d2))
				n = rowResync
			}
			if qv <= qCutoff {
				dst[i] += kv * ev
				erow[i] = ev
			} else {
				erow[i] = 0
			}
			ev *= rr
			rr *= c.EStep
			n--
		}
	}
}

// sweepStarGrad is sweepStar without the position-position Hessian lanes.
func (e *Evaluator) sweepStarGrad(l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	sv := l.StarV
	sg0, sg1 := l.StarG[:w], l.StarG[w:2*w]

	for ci := range e.Star {
		c := &e.Star[ci]
		kv := c.K.V
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		d2 := dy - c.MuY
		s22 := d2 * d2
		i0, i1, ok := rowInterval(dxs, q11, &c.Geom, c.MuX, d2)
		if !ok {
			continue
		}
		l.span[ci] = rowSpan{i0, i1}
		erow := l.e[ci*w : (ci+1)*w]

		var ev, rr float64
		n := 0
		for i := i0; i <= i1; i++ {
			d1 := dxs[i] - c.MuX
			s11, s12 := d1*d1, d1*d2
			qv := q11*s11 + 2*q12*s12 + q22*s22
			if n == 0 {
				ev = math.Exp(-0.5 * qv)
				rr = math.Exp(-0.5 * (q11*(2*d1+1) + 2*q12*d2))
				n = rowResync
			}
			if qv <= qCutoff {
				tq1 := 2 * (q11*d1 + q12*d2)
				tq2 := 2 * (q12*d1 + q22*d2)
				qg0 := tq1*g10 + tq2*g20
				qg1 := tq1*g11 + tq2*g21
				ke := kv * ev
				sv[i] += ke
				sg0[i] -= 0.5 * ke * qg0
				sg1[i] -= 0.5 * ke * qg1
				erow[i] = ev
			} else {
				erow[i] = 0
			}
			ev *= rr
			rr *= c.EStep
			n--
		}
	}
}

// sweepGalGrad is sweepGal keeping only the value and gradient lanes: the
// row-hoisted shape-gradient coefficients survive, the Hessian hoists and the
// per-pixel ta/tb bookkeeping do not.
func (e *Evaluator) sweepGalGrad(l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	nStar := len(e.Star)
	gv := l.GalV
	var gG [dual.N][]float64
	for k := 0; k < dual.N; k++ {
		gG[k] = l.GalG[k*w : (k+1)*w]
	}

	// Row-hoisted shape-gradient coefficients: qg_k = sa*s11 + sb*s12 + sc.
	var sa, sb, sc [dual.N]float64

	for ci := range e.Gal {
		c := &e.Gal[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		d2 := dy - c.MuY
		s22 := d2 * d2
		i0, i1, ok := rowInterval(dxs, q11, &c.Geom, c.MuX, d2)
		if !ok {
			continue
		}
		l.span[nStar+ci] = rowSpan{i0, i1}
		erow := l.e[(nStar+ci)*w : (nStar+ci+1)*w]
		halfkv := 0.5 * kv
		for k := 2; k < dual.N; k++ {
			sa[k] = c.Q11.G[k]
			sb[k] = 2 * c.Q12.G[k]
			sc[k] = c.Q22.G[k] * s22
		}

		var ev, rr float64
		n := 0
		for i := i0; i <= i1; i++ {
			d1 := dxs[i] - c.MuX
			s11, s12 := d1*d1, d1*d2
			qv := q11*s11 + 2*q12*s12 + q22*s22
			if n == 0 {
				ev = math.Exp(-0.5 * qv)
				rr = math.Exp(-0.5 * (q11*(2*d1+1) + 2*q12*d2))
				n = rowResync
			}
			if qv <= qCutoff {
				tq1 := 2 * (q11*d1 + q12*d2)
				tq2 := 2 * (q12*d1 + q22*d2)
				qg0 := tq1*g10 + tq2*g20
				qg1 := tq1*g11 + tq2*g21

				ke := kv * ev
				gv[i] += ke
				gG[0][i] -= 0.5 * ke * qg0
				gG[1][i] -= 0.5 * ke * qg1
				for k := 2; k < dual.N; k++ {
					t := c.K.G[k] - halfkv*(sa[k]*s11+sb[k]*s12+sc[k])
					gG[k][i] += ev * t
				}
				erow[i] = ev
			} else {
				erow[i] = 0
			}
			ev *= rr
			rr *= c.EStep
			n--
		}
	}
}
