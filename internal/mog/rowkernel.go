package mog

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/sliceutil"
)

// This file implements the batched row-sweep pixel kernel: instead of
// evaluating every compiled component at one pixel at a time, a full row of W
// contiguous pixels is swept per component, writing into structure-of-arrays
// lanes. Three structural moves make the sweep fast without changing results
// beyond ~1e-12 relative:
//
//   - Active-interval culling: along a row the Gaussian exponent q(x) is an
//     upward parabola in x, so the pixels with q <= qCutoff form one run,
//     bounded in O(1) per component per row (rowInterval, or on a carried
//     row the previous row's run). Components that cannot reach the row cost
//     nothing; narrow components touch only the few pixels they reach. The
//     cutoff test finds the run's ends with bitwise the same expression as
//     the scalar reference, and the pixels between them are proven accepted,
//     so truncation decisions are identical.
//
//   - Exp-free Gaussian recurrence: E = exp(-q/2) comes from the E generator
//     (egen.go), which carries each component's exponential state from row to
//     row of a patch and along each row in two interleaved multiply chains.
//     A component pays exact math.Exp resyncs on its first row of the patch
//     and then only every carryResync carried steps, every rowResync pixels
//     along a row, or when the carried state leaves the normal range; the
//     drift stays below 1e-12 relative (see TestRowSweepDriftBound).
//
//   - Fused star+galaxy evaluation with hoisted row coefficients: one call
//     fills both star and galaxy lanes; per row, every pixel-independent
//     piece of the dual chain rule (position-position Hessian entries, the
//     linear/quadratic coefficients of the shape gradient and Hessian terms
//     in d1) is hoisted out of the pixel loop, and the star components —
//     whose K and Q carry no derivatives — collapse to a 6-lane specialized
//     path.
//
// The rows of one patch are swept in order, top to bottom, one call per row;
// the sweeps carry state in the evaluator, which Build resets.

// RowLanes is the structure-of-arrays output of one row sweep: per-pixel
// star and galaxy spatial densities with their dual derivatives, as flat
// slabs of w-wide lanes. Star components carry no shape derivatives (their K
// and Q duals are constants), so the star side stores only the value, the
// two position-gradient lanes, and the three position-position Hessian
// lanes. Lanes are owned by an elbo sweep worker and reused across rows,
// patches, and evaluations.
//
// The Hessian lanes are filled only by SweepRow, the lane oracle, which
// sizes them itself; the production tiers contract second derivatives into
// per-component moments instead (rowmoment.go) and read, besides the value
// and gradient lanes, the per-component exponential slab E that SweepRowGrad
// and SweepRowE record for the moment pass.
type RowLanes struct {
	w int

	StarV []float64 // len w: star density value
	StarG []float64 // len 2w: position gradient lanes 0..1
	StarH []float64 // len 3w: packed position Hessian lanes 0..2 (SweepRow only)

	GalV []float64 // len w: galaxy density value
	GalG []float64 // len dual.N*w: gradient lanes
	GalH []float64 // len dual.HessLen*w: packed Hessian lanes (SweepRow only)

	// e holds, for component c of the last SweepRowGrad/SweepRowE (star
	// components first, then galaxy), its bare exponential exp(-q/2) over
	// the pixels span[c] — exactly zero where the pixel failed the qCutoff
	// test. Row c starts at c*w.
	e    []float64
	span []rowSpan
}

// rowSpan is one component's inclusive active pixel range on the current
// row; i1 < i0 marks a component that does not reach the row.
type rowSpan struct{ i0, i1 int }

// W returns the current lane width.
func (l *RowLanes) W() int { return l.w }

// Resize sets the lane width, growing the value and gradient slabs as
// needed. Contents are unspecified afterwards; every sweep zeroes the lanes
// it fills.
func (l *RowLanes) Resize(w int) {
	l.w = w
	l.StarV = sliceutil.Grow(l.StarV, w)
	l.StarG = sliceutil.Grow(l.StarG, 2*w)
	l.GalV = sliceutil.Grow(l.GalV, w)
	l.GalG = sliceutil.Grow(l.GalG, dual.N*w)
}

// StarGLane returns the star gradient lane for position coordinate k (0..1).
func (l *RowLanes) StarGLane(k int) []float64 { return l.StarG[k*l.w : (k+1)*l.w] }

// StarHLane returns the star Hessian lane for packed position index k (0..2);
// valid after a SweepRow at the current width.
func (l *RowLanes) StarHLane(k int) []float64 { return l.StarH[k*l.w : (k+1)*l.w] }

// GalGLane returns the galaxy gradient lane for coordinate k (0..dual.N-1).
func (l *RowLanes) GalGLane(k int) []float64 { return l.GalG[k*l.w : (k+1)*l.w] }

// GalHLane returns the galaxy Hessian lane for packed index k; valid after a
// SweepRow at the current width.
func (l *RowLanes) GalHLane(k int) []float64 { return l.GalH[k*l.w : (k+1)*l.w] }

// rowInterval returns the inclusive index range [i0, i1] of dxs whose pixels
// can satisfy q <= qCutoff for a component with row constants k, x-mean mux,
// and fixed y-offset d2. The interval is widened conservatively (analytic
// margin plus one pixel per side) so it can only over-include; the per-pixel
// cutoff test keeps truncation decisions exact. ok is false when the whole
// row is out of reach. dxs must be unit-spaced ascending.
func rowInterval(dxs []float64, k *rowConst, mux, d2 float64) (i0, i1 int, ok bool) {
	// q(d1) = q11*d1^2 + 2*q12*d1*d2 + q22*d2^2: vertex and minimum.
	d1c := -k.q12OverQ11 * d2
	qmin := k.qminCoef * d2 * d2
	rem := qCutoff + 1e-9*(1+math.Abs(qmin)) - qmin
	if rem < 0 || k.q11 <= 0 {
		return 0, 0, false
	}
	h := math.Sqrt(rem*k.invQ11) + 1e-6
	lo := d1c - h + mux
	hi := d1c + h + mux
	w := len(dxs)
	i0 = int(math.Ceil(lo-dxs[0])) - 1
	i1 = int(math.Floor(hi-dxs[0])) + 1
	if i0 < 0 {
		i0 = 0
	}
	if i1 > w-1 {
		i1 = w - 1
	}
	if i0 > i1 {
		return 0, 0, false
	}
	return i0, i1, true
}

// SweepRow evaluates the star and galaxy spatial densities with derivatives
// for one pixel row, writing the results into l's lanes (which it zeroes
// first). dxs[i] holds the x-offset of pixel i from the source center
// (float64(x) - srcX, unit-spaced), dy the y-offset of the row; both in
// pixels, exactly as EvalStar/EvalGal receive them. Lane i then matches
// EvalStar(dxs[i], dy) / EvalGal(dxs[i], dy) to ~1e-12 relative, with
// identical qCutoff truncation decisions. Like SweepRowGrad it sweeps the
// next row of the evaluator's patch and records the E slab, bitwise the one
// SweepRowGrad records for the same row.
func (e *Evaluator) SweepRow(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	if len(dxs) != w {
		panic("mog: SweepRow dxs length does not match lane width")
	}
	l.StarH = sliceutil.Grow(l.StarH, 3*w)
	l.GalH = sliceutil.Grow(l.GalH, dual.HessLen*w)
	clearFloats(l.StarV)
	clearFloats(l.StarG)
	clearFloats(l.StarH)
	clearFloats(l.GalV)
	clearFloats(l.GalG)
	clearFloats(l.GalH)
	e.beginRow(l)
	if w == 0 {
		return
	}
	e.sweepStar(l, dxs, dy)
	e.sweepGal(l, dxs, dy)
}

func clearFloats(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// sweepStar handles the PSF components: K and Q are dual constants, so only
// the value, the position gradient, and the position-position Hessian block
// are nonzero.
func (e *Evaluator) sweepStar(l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	sv := l.StarV
	sg0, sg1 := l.StarG[:w], l.StarG[w:2*w]
	sh0, sh1, sh2 := l.StarH[:w], l.StarH[w:2*w], l.StarH[2*w:3*w]

	for ci := range e.Star {
		c := &e.Star[ci]
		kv := c.K.V
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		erow, d2, i0, i1, ok := e.gen.eRow(l, ci, c, dxs, dy)
		if !ok {
			continue
		}
		// Position-position Hessian of q: pixel-independent.
		hs0 := 2 * (q11*g10*g10 + 2*q12*g10*g20 + q22*g20*g20)
		hs1 := 2 * (q11*g10*g11 + q12*(g10*g21+g11*g20) + q22*g20*g21)
		hs2 := 2 * (q11*g11*g11 + 2*q12*g11*g21 + q22*g21*g21)

		for i := i0; i <= i1; i++ {
			ev := erow[i]
			if ev == 0 {
				continue
			}
			d1 := dxs[i] - c.MuX
			tq1 := 2 * (q11*d1 + q12*d2)
			tq2 := 2 * (q12*d1 + q22*d2)
			qg0 := tq1*g10 + tq2*g20
			qg1 := tq1*g11 + tq2*g21
			ke := kv * ev
			sv[i] += ke
			sg0[i] -= 0.5 * ke * qg0
			sg1[i] -= 0.5 * ke * qg1
			sh0[i] += ke * (0.25*qg0*qg0 - 0.5*hs0)
			sh1[i] += ke * (0.25*qg0*qg1 - 0.5*hs1)
			sh2[i] += ke * (0.25*qg1*qg1 - 0.5*hs2)
		}
	}
}

// sweepGal handles the galaxy components, whose K and Q duals carry shape
// derivatives (coordinates 2..5) but no position derivatives. Per row, the
// shape gradient and Hessian entries of q are polynomials in d1 of degree at
// most two with pixel-independent coefficients, hoisted out of the pixel
// loop.
func (e *Evaluator) sweepGal(l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	gv := l.GalV
	var gG [dual.N][]float64
	for k := 0; k < dual.N; k++ {
		gG[k] = l.GalG[k*w : (k+1)*w]
	}
	var gH [dual.HessLen][]float64
	for k := 0; k < dual.HessLen; k++ {
		gH[k] = l.GalH[k*w : (k+1)*w]
	}

	// Per-pixel shape intermediates: qg[k] (the shape gradient of q),
	// tk[k] = K.G[k] - 0.5*kv*qg[k] scaled two ways. The Hessian cross
	// terms factor through tk:
	//
	//   K.H[kj] - 0.5*(K.G[k]*qg[j] + K.G[j]*qg[k]) + 0.25*kv*qg[k]*qg[j]
	//     = (K.H[kj] - K.G[k]*K.G[j]/kv) + tk[k]*tk[j]/kv,
	//
	// so each shape-shape entry needs only the precomputed constant on the
	// left plus one product of already-needed gradient quantities, and each
	// shape-position entry collapses to -0.5*(qg[pos]*ev*tk + kv*ev*qhsp).
	var ta, tb [dual.N]float64 // ta[k] = ev*tk[k], tb[k] = tk[k]/kv
	// Row-hoisted coefficients: qg_k = sa*s11 + sb*s12 + sc; the
	// shape-position q-Hessian entries hp*d1 + hr; the shape-shape
	// combined constant and s11/s12 coefficients m0/m1/m2.
	var sa, sb, sc [dual.N]float64
	var hp0, hr0, hp1, hr1 [dual.N]float64
	var m0, m1, m2 [dual.HessLen]float64

	for ci := range e.Gal {
		c := &e.Gal[ci]
		kv := c.K.V
		if kv == 0 {
			// A fully underflowed mixing weight zeroes K and all its
			// derivatives; the component contributes nothing.
			continue
		}
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		erow, d2, i0, i1, ok := e.gen.eRow(l, len(e.Star)+ci, c, dxs, dy)
		if !ok {
			continue
		}
		s22 := d2 * d2

		hs0 := 2 * (q11*g10*g10 + 2*q12*g10*g20 + q22*g20*g20)
		hs1 := 2 * (q11*g10*g11 + q12*(g10*g21+g11*g20) + q22*g20*g21)
		hs2 := 2 * (q11*g11*g11 + 2*q12*g11*g21 + q22*g21*g21)
		invk := 1 / kv
		halfkv := 0.5 * kv
		for k := 2; k < dual.N; k++ {
			sa[k] = c.Q11.G[k]
			sb[k] = 2 * c.Q12.G[k]
			sc[k] = c.Q22.G[k] * s22
			hp0[k] = 2 * (c.Q11.G[k]*g10 + c.Q12.G[k]*g20)
			hr0[k] = 2 * d2 * (c.Q12.G[k]*g10 + c.Q22.G[k]*g20)
			hp1[k] = 2 * (c.Q11.G[k]*g11 + c.Q12.G[k]*g21)
			hr1[k] = 2 * d2 * (c.Q12.G[k]*g11 + c.Q22.G[k]*g21)
			base := k * (k + 1) / 2
			for j := 2; j <= k; j++ {
				h := base + j
				m0[h] = c.K.H[h] - c.K.G[k]*c.K.G[j]*invk - halfkv*c.Q22.H[h]*s22
				m1[h] = -halfkv * c.Q11.H[h]
				m2[h] = -kv * c.Q12.H[h]
			}
		}
		for i := i0; i <= i1; i++ {
			ev := erow[i]
			if ev != 0 {
				d1 := dxs[i] - c.MuX
				s11, s12 := d1*d1, d1*d2
				tq1 := 2 * (q11*d1 + q12*d2)
				tq2 := 2 * (q12*d1 + q22*d2)
				qg0 := tq1*g10 + tq2*g20
				qg1 := tq1*g11 + tq2*g21

				ke := kv * ev
				gv[i] += ke
				// Gradient: K carries no position derivatives.
				gG[0][i] -= 0.5 * ke * qg0
				gG[1][i] -= 0.5 * ke * qg1
				for k := 2; k < dual.N; k++ {
					t := c.K.G[k] - halfkv*(sa[k]*s11+sb[k]*s12+sc[k])
					ta[k] = ev * t
					tb[k] = invk * t
					gG[k][i] += ta[k]
				}
				// Hessian by block. Position-position: K constant there.
				gH[0][i] += ke * (0.25*qg0*qg0 - 0.5*hs0)
				gH[1][i] += ke * (0.25*qg0*qg1 - 0.5*hs1)
				gH[2][i] += ke * (0.25*qg1*qg1 - 0.5*hs2)
				for k := 2; k < dual.N; k++ {
					base := k * (k + 1) / 2
					// Shape-position: K.G and K.H vanish in the position
					// directions.
					gH[base][i] -= 0.5 * (qg0*ta[k] + ke*(hp0[k]*d1+hr0[k]))
					gH[base+1][i] -= 0.5 * (qg1*ta[k] + ke*(hp1[k]*d1+hr1[k]))
					for j := 2; j <= k; j++ {
						h := base + j
						gH[h][i] += ev*(m0[h]+m1[h]*s11+m2[h]*s12) + ta[k]*tb[j]
					}
				}
			}
		}
	}
}

// ValueBoundingRadiusPx returns a pixel radius outside which every compiled
// component's exponent exceeds qCutoff (so EvalComps is exactly zero):
// sqrt(qCutoff) times the largest component standard deviation (by the trace
// bound on the covariance) plus the largest mean offset, with a small
// absolute margin.
func ValueBoundingRadiusPx(comps []ValueComp) float64 {
	var maxVar, maxOff float64
	for i := range comps {
		c := &comps[i]
		detQ := c.Q11*c.Q22 - c.Q12*c.Q12
		if detQ <= 0 {
			continue
		}
		tr := (c.Q11 + c.Q22) / detQ
		if tr > maxVar {
			maxVar = tr
		}
		off := math.Hypot(c.MuX, c.MuY)
		if off > maxOff {
			maxOff = off
		}
	}
	r := CullSigma*math.Sqrt(maxVar) + maxOff
	return r + 1e-6*(1+r)
}

// CullSigma is the n-sigma bound that makes bounding-box culling exact with
// respect to the qCutoff truncation: beyond CullSigma standard deviations of
// every component, q > qCutoff and the truncated density is identically
// zero.
var CullSigma = math.Sqrt(qCutoff)
