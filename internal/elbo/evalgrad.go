package elbo

import (
	"math"

	"celeste/internal/dual"
	"celeste/internal/model"
)

// GradResult is a middle-tier objective evaluation: value and exact gradient
// but no Hessian. L-BFGS (vi.FitLBFGS) runs on this tier — most of a full
// evaluation's cost is the Hessian lanes and their per-pixel moment assembly,
// which this tier skips entirely.
type GradResult struct {
	Value  float64
	Grad   [model.ParamDim]float64
	Visits int64
}

// EvalGradInto is the gradient-only evaluation tier: the same culling
// geometry, row sweeps, and accumulation expressions as EvalInto, with every
// Hessian-bearing computation removed — no derivative lane is filled at all,
// the per-pixel consumption loop keeps only the p1/p2 chain, the spatial
// gradient comes from the degree ≤ 2 component moments, and the
// brightness-direction block collapses to four scalar moments per patch.
// Because the surviving expressions and accumulators are identical to
// EvalInto's term by term, the returned value and gradient agree with the
// full tier to well under 1e-12 relative (see
// TestEvalGradIntoMatchesEvalInto), and the visit counts agree exactly. The
// returned GradResult is owned by s and valid until the next EvalGradInto
// with the same scratch; steady-state calls perform zero heap allocations.
func (pb *Problem) EvalGradInto(theta *model.Params, s *Scratch) *GradResult {
	res := &s.gres
	res.Value = 0
	res.Visits = 0
	for i := range res.Grad {
		res.Grad[i] = 0
	}

	bm := s.computeBrightMoments(theta)
	s.runPatches(pb, theta, bm, tierGrad)

	for i := range pb.Patches {
		pp := &s.parts[i]
		res.Value += pp.value
		res.Visits += pp.visits
		for j := range res.Grad {
			res.Grad[j] += pp.grad[j]
		}
	}

	// The KL and anchor terms — the same computeKL EvalInto reads, so the
	// shared coordinates match it exactly.
	kl := s.computeKL(theta, pb.Priors)
	res.Value -= kl.Val
	for l := 0; l < brightDim; l++ {
		res.Grad[6+l] -= kl.Grad[l]
	}
	if pb.PosPenalty > 0 {
		dra := theta[model.ParamRA] - pb.PosAnchor.RA
		ddec := theta[model.ParamDec] - pb.PosAnchor.Dec
		res.Value -= 0.5 * pb.PosPenalty * (dra*dra + ddec*ddec)
		res.Grad[model.ParamRA] -= pb.PosPenalty * dra
		res.Grad[model.ParamDec] -= pb.PosPenalty * ddec
	}
	return res
}

// evalPatchGrad is the gradient tier's per-patch sweep into a partial
// accumulator: the same culling geometry, pixel expressions and moment pass
// as evalPatchFull with every second-order computation removed. Pass A
// (mog.SweepRowE) fills value lanes only — no derivative lane is written on
// this tier — the pixel loop keeps the p1/p2 chain and the weights ωs, ωg,
// and pass B accumulates the degree ≤ 2 moments, the same accumulators by
// the same operations as the full tier's, from which the spatial gradient is
// assembled once per patch. The evaluator is built to first order
// (mog.BuildGrad).
func (pb *Problem) evalPatchGrad(theta *model.Params, bm *brightMoments, p *Patch,
	ws *sweepState, out *patchPartial) {

	out.value = 0
	out.visits = 0
	for i := range out.grad {
		out.grad[i] = 0
	}
	grad := &out.grad

	srcX, srcY := p.WCS.WorldToPix(pbPos(theta))
	cx0, cy0, cx1, cy1 := cullRect(p.Rect, srcX, srcY, cullRadiusPx(theta, p))
	out.value += p.bgOutside(cx0, cy0, cx1, cy1)
	if cx0 >= cx1 || cy0 >= cy1 {
		return
	}
	w := cx1 - cx0
	out.visits += int64(w) * int64(cy1-cy0)

	{
		ev := ws.buildEvaluatorGrad(theta, p)
		ws.mom.Reset(ev)
		iota := p.Iota
		b := p.Band
		av, bv, cv, dv := &bm.A[b], &bm.B[b], &bm.C[b], &bm.D[b]
		aV, bV := iota*av.Val, iota*bv.Val
		cV, dV := iota*iota*cv.Val, iota*iota*dv.Val

		lanes := ws.lanes
		dxs, omS, omG := ws.sizeRow(w, cx0, srcX)
		sv, gvL := lanes.StarV, lanes.GalV

		// Brightness-direction moments: gradient assembly needs only the four
		// scalar sums (the vector and second-order moments exist solely for
		// the Hessian blocks).
		var p1s, p1g, p2ss, p2gg float64
		rectW := p.Rect.Width()
		for y := cy0; y < cy1; y++ {
			dy := float64(y) - srcY
			ev.SweepRowE(lanes, dxs, dy)
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
				// first partials in (m, e2); identical expressions to EvalInto.
				inv := 1 / ef
				inv2 := inv * inv
				inv3 := inv2 * inv
				out.value += obs*(math.Log(ef)-vf*inv2/2) - ef
				p1 := obs*(inv+m*inv2+vf*inv3) - 1
				p2 := -obs * inv2 / 2

				p2c, p2d := 2*p2*cV, 2*p2*dV
				omS[i] = p1*aV + p2c*gs
				omG[i] = p1*bV + p2d*gg

				p1s += p1 * gs
				p1g += p1 * gg
				p2ss += p2 * gs * gs
				p2gg += p2 * gg * gg
			}
			ev.AccumRow(&ws.mom, lanes, omS, omG, dxs, dy, false)
		}

		ev.MomentGrad(&ws.mom, (*[dual.N]float64)(grad[:dual.N]))
		iota2 := iota * iota
		for li := 0; li < brightDim; li++ {
			avG, bvG := av.Grad[li], bv.Grad[li]
			cvG, dvG := cv.Grad[li], dv.Grad[li]
			grad[6+li] += iota*(avG*p1s+bvG*p1g) + iota2*(cvG*p2ss+dvG*p2gg)
		}
	}
}
