package elbo

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/geom"
	"celeste/internal/linalg"
	"celeste/internal/mathx"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/sliceutil"
)

// Result is a full objective evaluation: value, gradient, Hessian, and the
// active-pixel-visit count used for FLOP accounting (Section VI-B of the
// paper).
type Result struct {
	Value  float64
	Grad   [model.ParamDim]float64
	Hess   *linalg.Mat // ParamDim x ParamDim, symmetric, fully populated
	Visits int64
}

// maxProfVar is the largest radial-profile component variance (in units of
// the squared half-light radius), used by the conservative active-pixel
// bound.
var maxProfVar = func() float64 {
	var m float64
	for _, pc := range expProf {
		if pc.Var > m {
			m = pc.Var
		}
	}
	for _, pc := range devProf {
		if pc.Var > m {
			m = pc.Var
		}
	}
	return m
}()

// cullRadiusPx returns the patch's active-pixel radius for the current
// parameters: beyond it, every star and galaxy component's exponent exceeds
// the qCutoff truncation, so both spatial densities are identically zero and
// a pixel contributes only its analytic background term. The bound is the
// trace bound on the largest component covariance (valid for both the dual
// and the compiled value components, clamped or not — clamping only widens
// the shape covariance) times mog.CullSigma, plus the largest PSF mean
// offset and a margin absorbing floating-point rounding. Both the derivative
// and the value path derive their culling rectangle from this one scalar
// computation, so their visit counts agree exactly.
func cullRadiusPx(theta *model.Params, p *Patch) float64 {
	ab := clampAB(mathx.Logistic(theta[model.ParamGalABLogit]))
	sigma := clampScale(math.Exp(theta[model.ParamGalLogScale]))
	w11, w12, w22 := mog.GalaxyCov(ab, theta[model.ParamGalAngle], sigma)
	jac := model.JacFromWCS(p.WCS)
	p11, _, p22 := jac.Apply(w11, w12, w22)
	galTr := maxProfVar * (p11 + p22)
	if !(galTr >= 0) {
		galTr = 0
	}
	var maxVar, maxOff float64
	for _, pk := range p.PSF {
		if v := pk.Sxx + pk.Syy + galTr; v > maxVar {
			maxVar = v
		}
		if off := math.Hypot(pk.MuX, pk.MuY); off > maxOff {
			maxOff = off
		}
	}
	r := mog.CullSigma*math.Sqrt(maxVar) + maxOff
	return r + 1e-6*(1+r)
}

// cullRect clips rect to the pixels within radius r (in each axis) of the
// source center. The returned rectangle may be empty (x0 >= x1 or y0 >= y1).
func cullRect(rect geom.PixRect, srcX, srcY, r float64) (x0, y0, x1, y1 int) {
	x0, y0, x1, y1 = rect.X0, rect.Y0, rect.X1, rect.Y1
	if v := int(math.Ceil(srcX - r)); v > x0 {
		x0 = v
	}
	if v := int(math.Floor(srcX+r)) + 1; v < x1 {
		x1 = v
	}
	if v := int(math.Ceil(srcY - r)); v > y0 {
		y0 = v
	}
	if v := int(math.Floor(srcY+r)) + 1; v < y1 {
		y1 = v
	}
	return
}

// patchMoments accumulates the pixel sums that let the brightness-direction
// Hessian blocks be assembled once per patch instead of once per pixel: the
// per-pixel brightness gradients factor as (patch constant) x (pixel
// scalar), so summing the pixel scalars first turns O(pixels x 27^2) work
// into O(pixels x ~30) plus an O(27^2) per-patch assembly.
type patchMoments struct {
	// Scalar moments: sums of p-coefficients times powers of the star (s)
	// and galaxy (g) density values.
	p1s, p1g, p2ss, p2gg          float64
	p11ss, p11sg, p11gg           float64
	p12sss, p12sgg, p12gss, p12gg float64

	// Vector moments over the six spatial coordinates: sums of
	// p-coefficients times density powers times spatial gradients. Entries
	// 2..5 of the star-gradient vectors stay zero (PSF components carry no
	// shape derivatives).
	a1, a2, b1, b2         [6]float64
	c11, c12, c21, c22     [6]float64
	e1, e2, e3, e4, e5, e6 [6]float64
}

// EvalInto computes the ELBO restricted to this source's block — the sum of
// per-pixel delta-method Poisson terms minus the KL from the priors — with
// exact gradient and Hessian, into s's buffers. The returned Result (and its
// gradient and Hessian) is owned by s and valid until the next EvalInto with
// the same scratch; steady-state calls perform zero heap allocations.
//
// Per patch the row-sweep kernel runs in evalPatchFull, writing into the
// patch's own partial accumulator — fanned out across the scratch's workers
// when SetWorkers enabled them, inline otherwise — and the partials are then
// reduced in fixed patch order, so the result is bitwise independent of the
// worker count (see parallel.go).
func (pb *Problem) EvalInto(theta *model.Params, s *Scratch) *Result {
	s.reset()
	res := &s.res

	bm := s.computeBrightMoments(theta)
	s.runPatches(pb, theta, bm, tierFull)

	// Reduce the patch partials into the lower triangle in patch order.
	hess := res.Hess
	for i := range pb.Patches {
		pp := &s.parts[i]
		res.Value += pp.value
		res.Visits += pp.visits
		for j := range res.Grad {
			res.Grad[j] += pp.grad[j]
		}
		for r := 0; r < model.ParamDim; r++ {
			row := hess.Data[r*model.ParamDim : r*model.ParamDim+r+1]
			prow := pp.hess.Data[r*model.ParamDim:]
			for c := range row {
				row[c] += prow[c]
			}
		}
	}

	pb.finishEval(theta, s)
	return res
}

// evalPatchFull is the full-tier (value+gradient+Hessian) sweep of one
// patch into its partial accumulator, using one worker's sweep state. The
// active rectangle is first clipped to the source's culling radius (pixels
// outside contribute only their background term, accumulated in closed form
// from per-row prefix sums). Each remaining row then takes two passes (see
// mog/rowmoment.go):
//
//   - Pass A, mog.SweepRowGrad, fills the value and gradient lanes. The pixel
//     loop consumes them: the objective value, the weights ωs, ωg of the
//     moment pass, the brightness-direction moments, and the part of the
//     spatial Hessian that is an outer product of first derivatives,
//
//     2·p2·(cV·∇gs⊗∇gs + dV·∇gg⊗∇gg) + p11·∇m⊗∇m + p12·(∇m⊗∇e2 + ∇e2⊗∇m),
//
//     which needs each pixel's total gradients and so cannot be contracted per
//     component. Past coordinate 1 both ∇m and ∇e2 are multiples of ∇gg (the
//     star density has no shape derivative), so the shape rows reduce to ∇gg
//     times a per-pixel 2-vector (position columns) or one scalar κ (shape
//     columns).
//
//   - Pass B, AccumRow, folds ωs·E_c and ωg·E_c into per-component moments.
//
// The linear part Σ ωs·∇ᵏgs + ωg·∇ᵏgg of the spatial gradient and Hessian is
// assembled from the moments once per patch.
func (pb *Problem) evalPatchFull(theta *model.Params, bm *brightMoments, p *Patch,
	ws *sweepState, out *patchPartial) {

	out.value = 0
	out.visits = 0
	for i := range out.grad {
		out.grad[i] = 0
	}
	out.hess.Zero()
	grad := &out.grad
	hess := out.hess // lower triangle

	srcX, srcY := p.WCS.WorldToPix(pbPos(theta))
	cx0, cy0, cx1, cy1 := cullRect(p.Rect, srcX, srcY, cullRadiusPx(theta, p))
	out.value += p.bgOutside(cx0, cy0, cx1, cy1)
	if cx0 >= cx1 || cy0 >= cy1 {
		return
	}
	w := cx1 - cx0
	out.visits += int64(w) * int64(cy1-cy0)

	{
		ev := ws.buildEvaluator(theta, p)
		ws.mom.Reset(ev)
		iota := p.Iota
		b := p.Band
		av, bv, cv, dv := &bm.A[b], &bm.B[b], &bm.C[b], &bm.D[b]
		// Fold ι into the moments once per patch.
		aV, bV := iota*av.Val, iota*bv.Val
		cV, dV := iota*iota*cv.Val, iota*iota*dv.Val
		bV2, bVdV4 := bV*bV, 4*bV*dV

		lanes := ws.lanes
		dxs, omS, omG := ws.sizeRow(w, cx0, srcX)
		sv := lanes.StarV
		sg0, sg1 := lanes.StarGLane(0), lanes.StarGLane(1)
		gvL := lanes.GalV
		var gGL [dual.N][]float64
		for k := 0; k < dual.N; k++ {
			gGL[k] = lanes.GalGLane(k)
		}

		var pm patchMoments
		var ho [dual.HessLen]float64 // outer-product part of the spatial Hessian
		rectW := p.Rect.Width()
		for y := cy0; y < cy1; y++ {
			dy := float64(y) - srcY
			ev.SweepRowGrad(lanes, dxs, dy)
			base := (y-p.Rect.Y0)*rectW + (cx0 - p.Rect.X0)
			obsRow := p.Obs[base : base+w]
			bgRow := p.Bg[base : base+w]
			vbgRow := p.VBg[base : base+w]

			for i := 0; i < w; i++ {
				obs, bg, vbg := obsRow[i], bgRow[i], vbgRow[i]
				gs, gg := sv[i], gvL[i]
				gs2v, gg2v := gs*gs, gg*gg

				m := aV*gs + bV*gg
				e2 := cV*gs2v + dV*gg2v
				ef := bg + m
				vf := vbg + e2 - m*m
				if ef <= 0 {
					// Cannot happen with positive sky; guard anyway.
					omS[i], omG[i] = 0, 0
					continue
				}

				// Pixel objective f = obs·(log EF − VF/(2EF²)) − EF and its
				// partials in (m, e2): with dEF/dm = 1 and dVF/dm = −2m the
				// 1/EF² terms of ∂²f/∂m² cancel, and ∂²f/∂e2² = 0.
				inv := 1 / ef
				inv2 := inv * inv
				inv3 := inv2 * inv
				inv4 := inv2 * inv2
				out.value += obs*(math.Log(ef)-vf*inv2/2) - ef
				p1 := obs*(inv+m*inv2+vf*inv3) - 1
				p2 := -obs * inv2 / 2
				p11 := obs * (-4*m*inv3 - 3*vf*inv4)
				p12 := obs * inv3

				// Moment-pass weights: p1·∇ᵏm + p2·∇ᵏe2 = ωs·∇ᵏgs + ωg·∇ᵏgg up
				// to the outer products below.
				p2c, p2d := 2*p2*cV, 2*p2*dV
				omS[i] = p1*aV + p2c*gs
				omG[i] = p1*bV + p2d*gg

				gsG0, gsG1 := sg0[i], sg1[i]
				var ggG [dual.N]float64
				for k := 0; k < dual.N; k++ {
					ggG[k] = gGL[k][i]
				}

				// Position entries of ∇m, ∇e2 and the position-position block.
				gm0 := aV*gsG0 + bV*ggG[0]
				gm1 := aV*gsG1 + bV*ggG[1]
				ge0 := 2 * (cV*gs*gsG0 + dV*gg*ggG[0])
				ge1 := 2 * (cV*gs*gsG1 + dV*gg*ggG[1])
				ho[0] += p2c*gsG0*gsG0 + p2d*ggG[0]*ggG[0] + p11*gm0*gm0 + 2*p12*gm0*ge0
				ho[1] += p2c*gsG0*gsG1 + p2d*ggG[0]*ggG[1] + p11*gm1*gm0 + p12*(gm1*ge0+gm0*ge1)
				ho[2] += p2c*gsG1*gsG1 + p2d*ggG[1]*ggG[1] + p11*gm1*gm1 + 2*p12*gm1*ge1

				// Shape rows: ∇gg[k] times v (position columns) or κ·∇gg[l].
				p12g := 2 * p12 * dV * gg
				v0 := p2d*ggG[0] + p11*bV*gm0 + p12*bV*ge0 + p12g*gm0
				v1 := p2d*ggG[1] + p11*bV*gm1 + p12*bV*ge1 + p12g*gm1
				kappa := p2d + p11*bV2 + p12*bVdV4*gg
				for k := 2; k < dual.N; k++ {
					row := ho[k*(k+1)/2:]
					gk := ggG[k]
					row[0] += gk * v0
					row[1] += gk * v1
					kg := kappa * gk
					for l := 2; l <= k; l++ {
						row[l] += kg * ggG[l]
					}
				}

				// Brightness-direction moments.
				p1gs, p1gg := p1*gs, p1*gg
				p2gs, p2gg := p2*gs, p2*gg
				p11gs, p11gg := p11*gs, p11*gg
				p12gs2, p12gsgg, p12gg2 := p12*gs2v, p12*gs*gg, p12*gg2v
				pm.p1s += p1gs
				pm.p1g += p1gg
				pm.p2ss += p2gs * gs
				pm.p2gg += p2gg * gg
				pm.p11ss += p11gs * gs
				pm.p11sg += p11gs * gg
				pm.p11gg += p11gg * gg
				pm.p12sss += p12gs2 * gs
				pm.p12sgg += p12gsgg * gg
				pm.p12gss += p12gsgg * gs
				pm.p12gg += p12gg2 * gg

				pm.a1[0] += p1 * gsG0
				pm.b1[0] += p2gs * gsG0
				pm.c11[0] += p11gs * gsG0
				pm.c21[0] += p11gg * gsG0
				pm.e1[0] += p12gs2 * gsG0
				pm.e3[0] += p12gsgg * gsG0
				pm.e5[0] += p12gg2 * gsG0
				pm.a1[1] += p1 * gsG1
				pm.b1[1] += p2gs * gsG1
				pm.c11[1] += p11gs * gsG1
				pm.c21[1] += p11gg * gsG1
				pm.e1[1] += p12gs2 * gsG1
				pm.e3[1] += p12gsgg * gsG1
				pm.e5[1] += p12gg2 * gsG1
				for j := 0; j < 6; j++ {
					g := ggG[j]
					pm.a2[j] += p1 * g
					pm.b2[j] += p2gg * g
					pm.c12[j] += p11gs * g
					pm.c22[j] += p11gg * g
					pm.e2[j] += p12gs2 * g
					pm.e4[j] += p12gsgg * g
					pm.e6[j] += p12gg2 * g
				}
			}
			ev.AccumRow(&ws.mom, lanes, omS, omG, dxs, dy, true)
		}

		// Spatial block: the moment-contracted linear part plus the outer
		// products.
		ev.MomentGrad(&ws.mom, (*[dual.N]float64)(grad[:dual.N]))
		ev.MomentHess(&ws.mom, &ho)
		k := 0
		for i := 0; i < dual.N; i++ {
			for j := 0; j <= i; j++ {
				hess.Data[i*model.ParamDim+j] += ho[k]
				k++
			}
		}

		// Per-patch assembly of the brightness-direction blocks from the
		// moments: Σ_px p1·∇²m + p2·∇²e2 + p11·∇m⊗∇m + p12·(∇m⊗∇e2 + ∇e2⊗∇m)
		// with every patch-constant factor hoisted out of the pixel sums.
		iota2 := iota * iota
		iota3 := iota2 * iota
		for li := 0; li < brightDim; li++ {
			avG, bvG := av.Grad[li], bv.Grad[li]
			cvG, dvG := cv.Grad[li], dv.Grad[li]
			grad[6+li] += iota*(avG*pm.p1s+bvG*pm.p1g) + iota2*(cvG*pm.p2ss+dvG*pm.p2gg)
			row := hess.Data[(6+li)*model.ParamDim:]
			for j := 0; j < 6; j++ {
				row[j] += iota*(avG*pm.a1[j]+bvG*pm.a2[j]) +
					2*iota2*(cvG*pm.b1[j]+dvG*pm.b2[j]) +
					iota*(avG*(aV*pm.c11[j]+bV*pm.c12[j])+bvG*(aV*pm.c21[j]+bV*pm.c22[j])) +
					2*iota*(avG*(cV*pm.e1[j]+dV*pm.e4[j])+bvG*(cV*pm.e3[j]+dV*pm.e6[j])) +
					iota2*(cvG*(aV*pm.e1[j]+bV*pm.e2[j])+dvG*(aV*pm.e5[j]+bV*pm.e6[j]))
			}
			for lj := 0; lj <= li; lj++ {
				hIdx := li*(li+1)/2 + lj
				avGj, bvGj := av.Grad[lj], bv.Grad[lj]
				cvGj, dvGj := cv.Grad[lj], dv.Grad[lj]
				row[6+lj] += iota*(av.Hess[hIdx]*pm.p1s+bv.Hess[hIdx]*pm.p1g) +
					iota2*(cv.Hess[hIdx]*pm.p2ss+dv.Hess[hIdx]*pm.p2gg) +
					iota2*(avG*avGj*pm.p11ss+(avG*bvGj+bvG*avGj)*pm.p11sg+bvG*bvGj*pm.p11gg) +
					iota3*((avG*cvGj+avGj*cvG)*pm.p12sss+
						(avG*dvGj+avGj*dvG)*pm.p12sgg+
						(bvG*cvGj+bvGj*cvG)*pm.p12gss+
						(bvG*dvGj+bvGj*dvG)*pm.p12gg)
			}
		}
	}
}

// finishEval adds the KL term to the reduced pixel terms, mirrors the
// Hessian's lower triangle, and adds the position anchor.
func (pb *Problem) finishEval(theta *model.Params, s *Scratch) {
	res := &s.res
	hess := res.Hess

	// KL terms (subtracted from the ELBO) over the brightness subspace.
	kl := s.computeKL(theta, pb.Priors)
	res.Value -= kl.Val
	for l := 0; l < brightDim; l++ {
		res.Grad[6+l] -= kl.Grad[l]
		row := hess.Data[(6+l)*model.ParamDim+6:]
		for m, h := range kl.Hess[packedIdx(l, 0) : packedIdx(l, l)+1] {
			row[m] -= h
		}
	}
	for i := 0; i < model.ParamDim; i++ {
		for j := 0; j < i; j++ {
			hess.Data[j*model.ParamDim+i] = hess.Data[i*model.ParamDim+j]
		}
	}

	// Weak position anchor (see Problem.PosPenalty).
	if pb.PosPenalty > 0 {
		dra := theta[model.ParamRA] - pb.PosAnchor.RA
		ddec := theta[model.ParamDec] - pb.PosAnchor.Dec
		res.Value -= 0.5 * pb.PosPenalty * (dra*dra + ddec*ddec)
		res.Grad[model.ParamRA] -= pb.PosPenalty * dra
		res.Grad[model.ParamDec] -= pb.PosPenalty * ddec
		res.Hess.Add(model.ParamRA, model.ParamRA, -pb.PosPenalty)
		res.Hess.Add(model.ParamDec, model.ParamDec, -pb.PosPenalty)
	}
}

// EvalValueWith computes the objective value only (no pixel derivatives),
// with the visit count. The trust region judges its trials by the full tier
// (EvalInto), so no fit calls it; it stays as the value lane of the
// benchmark harness and the value the tests hold the derivative tiers to.
// It evaluates in s's buffers, and steady-state calls perform zero heap
// allocations. Like EvalInto it sweeps rows of the culled active rectangle
// through the value row kernel, with identical culling geometry so the two
// paths' visit counts agree, and it reads the same flux moments and KL as
// the derivative tiers.
func (pb *Problem) EvalValueWith(theta *model.Params, s *Scratch) (float64, int64) {
	s.job.c = theta.Constrained()
	bm := s.computeBrightMoments(theta)
	s.runPatches(pb, theta, bm, tierValue)

	var value float64
	var visits int64
	for i := range pb.Patches {
		value += s.parts[i].value
		visits += s.parts[i].visits
	}
	value -= s.computeKL(theta, pb.Priors).Val
	if pb.PosPenalty > 0 {
		dra := theta[model.ParamRA] - pb.PosAnchor.RA
		ddec := theta[model.ParamDec] - pb.PosAnchor.Dec
		value -= 0.5 * pb.PosPenalty * (dra*dra + ddec*ddec)
	}
	return value, visits
}

// evalPatchValue is the value tier's per-patch sweep into a partial
// accumulator, using one worker's sweep state, the constrained parameters
// and the flux moments the derivative tiers read.
func (pb *Problem) evalPatchValue(theta *model.Params, c *model.Constrained, bm *brightMoments,
	p *Patch, ws *sweepState, out *patchPartial) {

	out.value = 0
	out.visits = 0

	px, py := p.WCS.WorldToPix(c.Pos)
	cx0, cy0, cx1, cy1 := cullRect(p.Rect, px, py, cullRadiusPx(theta, p))
	out.value += p.bgOutside(cx0, cy0, cx1, cy1)
	if cx0 >= cx1 || cy0 >= cy1 {
		return
	}
	w := cx1 - cx0
	out.visits += int64(w) * int64(cy1-cy0)

	// Compile the star and galaxy appearance mixtures once per patch:
	// per-row evaluation is then one interval clip per component plus
	// two multiplies per active pixel.
	ws.starV = mog.CompileInto(ws.starV[:0], p.PSF)
	ws.galV = mog.CompileInto(ws.galV[:0], ws.galaxyMixtureInto(c, p))
	iota := p.Iota
	b := p.Band
	aV, bV := iota*bm.A[b].Val, iota*bm.B[b].Val
	cV, dV := iota*iota*bm.C[b].Val, iota*iota*bm.D[b].Val

	ws.dxs = sliceutil.Grow(ws.dxs, w)
	ws.rowS = sliceutil.Grow(ws.rowS, w)
	ws.rowG = sliceutil.Grow(ws.rowG, w)
	dxs, rowS, rowG := ws.dxs[:w], ws.rowS[:w], ws.rowG[:w]
	for i := range dxs {
		dxs[i] = float64(cx0+i) - px
	}
	rectW := p.Rect.Width()
	ws.starGen.Reset()
	ws.galGen.Reset()
	for y := cy0; y < cy1; y++ {
		dy := float64(y) - py
		ws.starGen.SweepRowValue(rowS, ws.starV, dxs, dy)
		ws.galGen.SweepRowValue(rowG, ws.galV, dxs, dy)
		base := (y-p.Rect.Y0)*rectW + (cx0 - p.Rect.X0)
		obsRow := p.Obs[base : base+w]
		bgRow := p.Bg[base : base+w]
		vbgRow := p.VBg[base : base+w]
		for i := 0; i < w; i++ {
			gs, gg := rowS[i], rowG[i]
			m := aV*gs + bV*gg
			e2 := cV*gs*gs + dV*gg*gg
			ef := bgRow[i] + m
			vf := vbgRow[i] + e2 - m*m
			if ef <= 0 {
				continue
			}
			out.value += obsRow[i]*(math.Log(ef)-vf/(2*ef*ef)) - ef
		}
	}
}

func pbPos(theta *model.Params) geom.Pt2 {
	return geom.Pt2{RA: theta[model.ParamRA], Dec: theta[model.ParamDec]}
}
