package elbo

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/model"
	"celeste/internal/sliceutil"
)

// This file retains the lane-materialising full tier exactly as it was before
// the moment contraction landed: mog.SweepRow fills 6 gradient and 21 Hessian
// SoA lanes per row and the pixel loop weights the lanes. It is the
// differential oracle of the moment kernel — objective level here, catalog
// level in TestMomentKernelCatalogDelta — and lives in a test file because no
// production path selects it.

// laneEvalInto is the lane-oracle EvalInto: serial over patches on the
// scratch's own sweep state.
func (pb *Problem) laneEvalInto(theta *model.Params, s *Scratch) *Result {
	s.reset()
	res := &s.res
	bm := s.computeBrightMoments(theta)
	n := len(pb.Patches)
	s.ensureParts(n, true)

	grad := &res.Grad
	hess := res.Hess
	for i, p := range pb.Patches {
		pp := &s.parts[i]
		pb.lanePatchFull(theta, bm, p, s.states[0], pp)
		res.Value += pp.value
		res.Visits += pp.visits
		for j := range grad {
			grad[j] += pp.grad[j]
		}
		for k, v := range pp.hess.Data {
			hess.Data[k] += v
		}
	}
	pb.finishEval(theta, s)
	return res
}

// laneEvalGradInto is the lane-oracle gradient tier: the value and gradient
// of the lane-oracle full evaluation (the pre-moment gradient tier agreed
// with it to 1e-12, term by term).
func (pb *Problem) laneEvalGradInto(theta *model.Params, s *Scratch) *GradResult {
	r := pb.laneEvalInto(theta, s)
	s.gres = GradResult{Value: r.Value, Grad: r.Grad, Visits: r.Visits}
	return &s.gres
}

// lanePatchFull is the pre-moment evalPatchFull.
func (pb *Problem) lanePatchFull(theta *model.Params, bm *brightMoments, p *Patch,
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
		iota := p.Iota
		b := p.Band
		av, bv, cv, dv := &bm.A[b], &bm.B[b], &bm.C[b], &bm.D[b]
		// Fold ι into the moments once per patch.
		aV, bV := iota*av.Val, iota*bv.Val
		cV, dV := iota*iota*cv.Val, iota*iota*dv.Val

		lanes := ws.lanes
		lanes.Resize(w)
		ws.dxs = sliceutil.Grow(ws.dxs, w)
		dxs := ws.dxs[:w]
		for i := range dxs {
			dxs[i] = float64(cx0+i) - srcX
		}

		var pm patchMoments
		rectW := p.Rect.Width()
		for y := cy0; y < cy1; y++ {
			// SweepRow sizes the Hessian slabs, so lanes are sliced after it.
			ev.SweepRow(lanes, dxs, float64(y)-srcY)
			sv := lanes.StarV
			sg0, sg1 := lanes.StarGLane(0), lanes.StarGLane(1)
			sh0, sh1, sh2 := lanes.StarHLane(0), lanes.StarHLane(1), lanes.StarHLane(2)
			gvL := lanes.GalV
			var gGL [dual.N][]float64
			for k := 0; k < dual.N; k++ {
				gGL[k] = lanes.GalGLane(k)
			}
			var gHL [dual.HessLen][]float64
			for k := 0; k < dual.HessLen; k++ {
				gHL[k] = lanes.GalHLane(k)
			}
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
					continue
				}

				// Pixel objective f = obs·(log EF − VF/(2EF²)) − EF and its
				// partials in (m, e2); see evalref.go for the derivation.
				inv := 1 / ef
				inv2 := inv * inv
				inv3 := inv2 * inv
				inv4 := inv2 * inv2
				out.value += obs*(math.Log(ef)-vf*inv2/2) - ef
				p1 := obs*(inv+m*inv2+vf*inv3) - 1
				p2 := -obs * inv2 / 2
				p11 := obs * (-4*m*inv3 - 3*vf*inv4)
				p12 := obs * inv3

				gsG0, gsG1 := sg0[i], sg1[i]
				var ggG [dual.N]float64
				for k := 0; k < dual.N; k++ {
					ggG[k] = gGL[k][i]
				}

				// Spatial ∇m, ∇e2 (star gradients vanish past coordinate 1).
				var gmj, ge2j [6]float64
				gmj[0] = aV*gsG0 + bV*ggG[0]
				gmj[1] = aV*gsG1 + bV*ggG[1]
				ge2j[0] = 2 * (cV*gs*gsG0 + dV*gg*ggG[0])
				ge2j[1] = 2 * (cV*gs*gsG1 + dV*gg*ggG[1])
				for k := 2; k < 6; k++ {
					gmj[k] = bV * ggG[k]
					ge2j[k] = 2 * dV * gg * ggG[k]
				}
				for j := 0; j < 6; j++ {
					grad[j] += p1*gmj[j] + p2*ge2j[j]
				}

				// Spatial Hessian block. Position-position (packed 0..2) is
				// the only block the star components reach.
				{
					h2m := aV*sh0[i] + bV*gHL[0][i]
					h2e := 2 * (cV*(gs*sh0[i]+gsG0*gsG0) + dV*(gg*gHL[0][i]+ggG[0]*ggG[0]))
					hess.Data[0] += p1*h2m + p2*h2e + p11*gmj[0]*gmj[0] + 2*p12*gmj[0]*ge2j[0]

					h2m = aV*sh1[i] + bV*gHL[1][i]
					h2e = 2 * (cV*(gs*sh1[i]+gsG0*gsG1) + dV*(gg*gHL[1][i]+ggG[0]*ggG[1]))
					hess.Data[1*model.ParamDim+0] += p1*h2m + p2*h2e +
						p11*gmj[1]*gmj[0] + p12*(gmj[1]*ge2j[0]+gmj[0]*ge2j[1])

					h2m = aV*sh2[i] + bV*gHL[2][i]
					h2e = 2 * (cV*(gs*sh2[i]+gsG1*gsG1) + dV*(gg*gHL[2][i]+ggG[1]*ggG[1]))
					hess.Data[1*model.ParamDim+1] += p1*h2m + p2*h2e +
						p11*gmj[1]*gmj[1] + 2*p12*gmj[1]*ge2j[1]
				}
				// Shape rows: the star density has no shape derivatives, so
				// only the galaxy lanes contribute to ∇²m and ∇²e2.
				for i2 := 2; i2 < 6; i2++ {
					row := hess.Data[i2*model.ParamDim:]
					hb := i2 * (i2 + 1) / 2
					for j2 := 0; j2 <= i2; j2++ {
						hg := gHL[hb+j2][i]
						h2m := bV * hg
						h2e := 2 * dV * (gg*hg + ggG[i2]*ggG[j2])
						row[j2] += p1*h2m + p2*h2e +
							p11*gmj[i2]*gmj[j2] + p12*(gmj[i2]*ge2j[j2]+gmj[j2]*ge2j[i2])
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
