package elbo

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/model"
	"celeste/internal/mog"
)

// This file retains the pixel-at-a-time scalar evaluation path exactly as it
// was before the row-sweep kernel landed: the differential reference of the
// kernel property tests (kernelref_test.go) and the "scalar reference" row of
// TestMomentKernelCatalogDelta. It lives in a test file because no production
// path selects it.

// evalIntoRef is the pre-kernel EvalInto: one EvalStar/EvalGal call per
// pixel, full per-pixel accumulation over the active 28-dimensional block.
func (pb *Problem) evalIntoRef(theta *model.Params, s *Scratch) *Result {
	s.reset()
	res := &s.res

	bm := s.computeBrightMoments(theta)

	// Per-pixel accumulation into the active 28x28 block.
	var grad [activeDim]float64
	hess := s.activeHess // lower triangle

	var gm, ge2 [activeDim]float64 // scratch: ∇m, ∇e2 per pixel

	sw := s.states[0] // the reference path stays serial on the owner's state
	for _, p := range pb.Patches {
		ev := sw.buildEvaluator(theta, p)
		srcX, srcY := p.WCS.WorldToPix(pbPos(theta))
		iota := p.Iota
		b := p.Band
		av, bv, cv, dv := &bm.A[b], &bm.B[b], &bm.C[b], &bm.D[b]
		// Fold ι into the moments once per patch.
		aV, bV := iota*av.Val, iota*bv.Val
		cV, dV := iota*iota*cv.Val, iota*iota*dv.Val

		k := 0
		for y := p.Rect.Y0; y < p.Rect.Y1; y++ {
			fy := float64(y)
			for x := p.Rect.X0; x < p.Rect.X1; x++ {
				obs := p.Obs[k]
				bg := p.Bg[k]
				vbg := p.VBg[k]
				k++
				res.Visits++

				gs := ev.EvalStar(float64(x)-srcX, fy-srcY)
				gg := ev.EvalGal(float64(x)-srcX, fy-srcY)
				gs2 := dual.Sqr(gs)
				gg2 := dual.Sqr(gg)

				m := aV*gs.V + bV*gg.V
				e2 := cV*gs2.V + dV*gg2.V
				ef := bg + m
				vf := vbg + e2 - m*m
				if ef <= 0 {
					// Cannot happen with positive sky; guard anyway.
					continue
				}

				// Pixel objective f = obs·(log EF − VF/(2EF²)) − EF and its
				// partials in (m, e2).
				inv := 1 / ef
				inv2 := inv * inv
				inv3 := inv2 * inv
				inv4 := inv2 * inv2
				res.Value += obs*(math.Log(ef)-vf*inv2/2) - ef
				p1 := obs*(inv+m*inv2+vf*inv3) - 1
				p2 := -obs * inv2 / 2
				// ∂²f/∂m²: differentiate obs·(1/EF + m/EF² + VF/EF³) − 0 in m
				// with dEF/dm = 1 and dVF/dm = −2m:
				//   d(1/EF) = −1/EF²;  d(m/EF²) = 1/EF² − 2m/EF³;
				//   d(VF/EF³) = −2m/EF³ − 3VF/EF⁴.
				// The 1/EF² terms cancel, leaving −4m/EF³ − 3VF/EF⁴.
				p11 := obs * (-4*m*inv3 - 3*vf*inv4)
				p12 := obs * inv3 // ∂²f/∂m∂e2
				// ∂²f/∂e2² = 0.

				// ∇m and ∇e2 over the active coordinates.
				for i := 0; i < 6; i++ {
					gm[i] = aV*gs.G[i] + bV*gg.G[i]
					ge2[i] = cV*gs2.G[i] + dV*gg2.G[i]
				}
				for l := 0; l < brightDim; l++ {
					gm[6+l] = iota * (gs.V*av.Grad[l] + gg.V*bv.Grad[l])
					ge2[6+l] = iota * iota * (gs2.V*cv.Grad[l] + gg2.V*dv.Grad[l])
				}

				// Gradient accumulation.
				for i := 0; i < activeDim; i++ {
					grad[i] += p1*gm[i] + p2*ge2[i]
				}

				// Hessian: p1·∇²m + p2·∇²e2 + outer-product terms.
				// Spatial block (0..5): dual Hessians.
				for i := 0; i < 6; i++ {
					row := hess.Data[i*activeDim:]
					for j := 0; j <= i; j++ {
						hIdx := dual.Idx(i, j)
						h2m := aV*gs.H[hIdx] + bV*gg.H[hIdx]
						h2e := cV*gs2.H[hIdx] + dV*gg2.H[hIdx]
						row[j] += p1*h2m + p2*h2e +
							p11*gm[i]*gm[j] + p12*(gm[i]*ge2[j]+gm[j]*ge2[i])
					}
				}
				// Cross block (bright x spatial) and bright block.
				for li := 0; li < brightDim; li++ {
					i := 6 + li
					row := hess.Data[i*activeDim:]
					// Cross: ∂²m/∂bright∂spatial = ∂A/∂b·∂g★/∂s + ...
					for j := 0; j < 6; j++ {
						h2m := iota * (av.Grad[li]*gs.G[j] + bv.Grad[li]*gg.G[j])
						h2e := iota * iota * (cv.Grad[li]*gs2.G[j] + dv.Grad[li]*gg2.G[j])
						row[j] += p1*h2m + p2*h2e +
							p11*gm[i]*gm[j] + p12*(gm[i]*ge2[j]+gm[j]*ge2[i])
					}
					// Bright block: moments' own Hessians scaled by g values.
					for lj := 0; lj <= li; lj++ {
						j := 6 + lj
						hIdx := li*(li+1)/2 + lj
						h2m := iota * (gs.V*av.Hess[hIdx] + gg.V*bv.Hess[hIdx])
						h2e := iota * iota * (gs2.V*cv.Hess[hIdx] + gg2.V*dv.Hess[hIdx])
						row[j] += p1*h2m + p2*h2e +
							p11*gm[i]*gm[j] + p12*(gm[i]*ge2[j]+gm[j]*ge2[i])
					}
				}
			}
		}
	}

	pb.finishEval(theta, s, &grad)
	return res
}

// evalGradRef is the reference gradient tier: the scalar full evaluation with
// the Hessian dropped (the reference predates the tier).
func (pb *Problem) evalGradRef(theta *model.Params, s *Scratch) *GradResult {
	r := pb.evalIntoRef(theta, s)
	res := &s.gres
	res.Value, res.Grad, res.Visits = r.Value, r.Grad, r.Visits
	return res
}

// evalValueRef is the pre-kernel EvalValueWith: compiled mixtures evaluated
// one pixel at a time.
func (pb *Problem) evalValueRef(theta *model.Params, s *Scratch) (float64, int64) {
	c := theta.Constrained()
	m1s, m2s := model.FluxMoments(c.R1[model.Star], c.R2[model.Star], c.C1[model.Star], c.C2[model.Star])
	m1g, m2g := model.FluxMoments(c.R1[model.Gal], c.R2[model.Gal], c.C1[model.Gal], c.C2[model.Gal])
	chiS, chiG := 1-c.ProbGal, c.ProbGal

	var value float64
	var visits int64
	sw := s.states[0] // the reference path stays serial on the owner's state
	for _, p := range pb.Patches {
		// Compile the star and galaxy appearance mixtures once per patch:
		// per-pixel evaluation is then one quadratic form and at most one
		// exponential per component, truncated exactly like the derivative
		// path.
		sw.starV = mog.CompileInto(sw.starV[:0], p.PSF)
		sw.galV = mog.CompileInto(sw.galV[:0], sw.galaxyMixtureInto(&c, p))
		px, py := p.WCS.WorldToPix(c.Pos)
		iota := p.Iota
		b := p.Band
		aV := iota * chiS * m1s[b]
		bV := iota * chiG * m1g[b]
		cV := iota * iota * chiS * m2s[b]
		dV := iota * iota * chiG * m2g[b]
		k := 0
		for y := p.Rect.Y0; y < p.Rect.Y1; y++ {
			for x := p.Rect.X0; x < p.Rect.X1; x++ {
				obs, bg, vbg := p.Obs[k], p.Bg[k], p.VBg[k]
				k++
				visits++
				gs := mog.EvalComps(sw.starV, float64(x)-px, float64(y)-py)
				gg := mog.EvalComps(sw.galV, float64(x)-px, float64(y)-py)
				m := aV*gs + bV*gg
				e2 := cV*gs*gs + dV*gg*gg
				ef := bg + m
				vf := vbg + e2 - m*m
				if ef <= 0 {
					continue
				}
				value += obs*(math.Log(ef)-vf/(2*ef*ef)) - ef
			}
		}
	}
	value -= s.computeKL(theta, pb.Priors).Val
	if pb.PosPenalty > 0 {
		dra := theta[model.ParamRA] - pb.PosAnchor.RA
		ddec := theta[model.ParamDec] - pb.PosAnchor.Dec
		value -= 0.5 * pb.PosPenalty * (dra*dra + ddec*ddec)
	}
	return value, visits
}

// addNeighborRef is the pre-kernel neighbor fold: uncompiled mixtures
// evaluated one pixel at a time without qCutoff truncation.
func addNeighborRef(p *Patch, c *model.Constrained) {
	// Per-band flux moments for both types.
	m1s, m2s := model.FluxMoments(c.R1[model.Star], c.R2[model.Star], c.C1[model.Star], c.C2[model.Star])
	m1g, m2g := model.FluxMoments(c.R1[model.Gal], c.R2[model.Gal], c.C1[model.Gal], c.C2[model.Gal])
	chiG := c.ProbGal
	chiS := 1 - chiG
	b := p.Band

	// Spatial mixtures centered at the neighbor's position.
	px, py := p.WCS.WorldToPix(c.Pos)
	star := p.PSF
	gal := galaxyMixtureFor(c, p)

	// Skip neighbors whose light cannot reach the patch.
	reach := model.RenderRadiusPx(gal, 0, 0, 6) + model.RenderRadiusPx(star, 0, 0, 6)
	if px < float64(p.Rect.X0)-reach || px > float64(p.Rect.X1)+reach ||
		py < float64(p.Rect.Y0)-reach || py > float64(p.Rect.Y1)+reach {
		return
	}

	iota := p.Iota
	k := 0
	for y := p.Rect.Y0; y < p.Rect.Y1; y++ {
		for x := p.Rect.X0; x < p.Rect.X1; x++ {
			gs := star.Eval(float64(x)-px, float64(y)-py)
			gg := gal.Eval(float64(x)-px, float64(y)-py)
			ef := iota * (chiS*m1s[b]*gs + chiG*m1g[b]*gg)
			e2 := iota * iota * (chiS*m2s[b]*gs*gs + chiG*m2g[b]*gg*gg)
			p.Bg[k] += ef
			p.VBg[k] += math.Max(e2-ef*ef, 0)
			k++
		}
	}
	p.bgPrefOK = false
}

// galaxyMixtureFor builds the neighbor's galaxy appearance mixture centered
// at the origin (offsets applied during evaluation).
func galaxyMixtureFor(c *model.Constrained, p *Patch) mog.Mixture {
	comb := appendProfileBlend(nil, c.GalDevFrac)
	return mog.GalaxyMixture(p.PSF, comb, clampAB(c.GalAxisRatio), c.GalAngle,
		clampScale(c.GalScale), model.JacFromWCS(p.WCS))
}
