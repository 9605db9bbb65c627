package elbo

import (
	"math"

	"celeste/internal/galprof"
	"celeste/internal/mathx"
	"celeste/internal/model"
)

// Shared galaxy profile mixtures.
var (
	expProf = galprof.Exponential()
	devProf = galprof.DeVaucouleurs()
)

// brightDim is the size of the brightness subspace: the two type logits plus
// r1, r2, c1[4], c2[4] for each type.
const brightDim = 22

// brightGlobal maps brightness-subspace indices to global parameter indices
// [6, 28).
var brightGlobal = func() [brightDim]int {
	var m [brightDim]int
	for l := 0; l < brightDim; l++ {
		m[l] = model.ParamTypeStar + l
	}
	return m
}()

// klDim is the size of the KL subspace: everything except position and
// galaxy shape (those are point estimates with flat priors).
const klDim = model.ParamDim - 6

// klGlobal maps KL-subspace indices to global indices [6, 44).
var klGlobal = func() [klDim]int {
	var m [klDim]int
	for l := 0; l < klDim; l++ {
		m[l] = 6 + l
	}
	return m
}()

// bmTDim is the size of one type's flux-moment block: r1, r2, and the color
// means and log-variances.
const bmTDim = 2 + 2*model.NumColors

// klTDim is the size of one type's KL block: r1, r2, four color means, four
// color log-variances, and the responsibility logits.
const klTDim = bmTDim + model.NumPriorComps

// klTMap maps a type's block indices to KL-subspace indices (global−6):
// [r1, r2, c1[0..3], c2[0..3], k[0..7]]. The brightness subspace shares this
// indexing, and its flux-moment block is the leading bmTDim entries.
var klTMap = func() [model.NumTypes][klTDim]int {
	var m [model.NumTypes][klTDim]int
	for t := 0; t < model.NumTypes; t++ {
		m[t][0] = model.ParamR1 + t - 6
		m[t][1] = model.ParamR2 + t - 6
		for i := 0; i < model.NumColors; i++ {
			m[t][2+i] = model.ParamC1 + 4*t + i - 6
			m[t][2+model.NumColors+i] = model.ParamC2 + 4*t + i - 6
		}
		for d := 0; d < model.NumPriorComps; d++ {
			m[t][bmTDim+d] = model.ParamK + model.NumPriorComps*t + d - 6
		}
	}
	return m
}()

// Every Hessian below is a lower triangle packed row-wise: entry (i, j),
// i >= j, at i*(i+1)/2 + j.
func packedIdx(i, j int) int { return i*(i+1)/2 + j }

// bmNum is one assembled flux moment with derivatives over the brightDim
// subspace.
type bmNum struct {
	Val  float64
	Grad [brightDim]float64
	Hess [brightDim * (brightDim + 1) / 2]float64
}

// brightMoments holds the four per-band flux moments with derivatives in the
// brightness subspace. A and B are the star/galaxy expected-flux factors
// (χ_t·E[ℓ_b]); C and D the second-moment factors (χ_t·E[ℓ_b²]). The
// per-image calibration ι is applied at use time.
type brightMoments struct {
	A, B, C, D [model.NumBands]bmNum
}

// klResult is the KL total with derivatives over the klDim subspace.
type klResult struct {
	Val  float64
	Grad [klDim]float64
	Hess [klDim * (klDim + 1) / 2]float64
}

// pairNum is a function of the two type logits (subspace indices 0 and 1 of
// both the KL and the brightness subspace) with its derivatives.
type pairNum struct {
	Val  float64
	Grad [2]float64
	Hess [3]float64
}

// typeNum is a function of one type's klTDim block (klTMap order) with its
// derivatives. A flux moment fills only the leading bmTDim block, whose
// packed rows are a prefix of the whole triangle.
type typeNum struct {
	Val  float64
	Grad [klTDim]float64
	Hess [klTDim * (klTDim + 1) / 2]float64
}

// typeWeights returns χ = softmax(a) over the two type logits a as
// functions of a. With two types 1 − χ_0 = χ_1, so the derivatives are
// written in p = χ_0χ_1 and χ_1 − χ_0 and never subtract from 1:
// ∇χ_0 = (p, −p) and ∇²χ_0 = p(χ_1 − χ_0)·[[1, −1], [−1, 1]]; χ_1 mirrors it.
func typeWeights(theta *model.Params) (chi [model.NumTypes]pairNum) {
	a := [model.NumTypes]float64{theta[model.ParamTypeStar], theta[model.ParamTypeGal]}
	lse := mathx.LogSumExp(a[:])
	q0, q1 := math.Exp(a[0]-lse), math.Exp(a[1]-lse)
	p, h := q0*q1, q0*q1*(q1-q0)
	chi[model.Star] = pairNum{Val: q0, Grad: [2]float64{p, -p}, Hess: [3]float64{h, -h, h}}
	chi[model.Gal] = pairNum{Val: q1, Grad: [2]float64{-p, p}, Hess: [3]float64{-h, h, -h}}
	return chi
}

// softmaxTerm writes F(z) = Σ_d q_d·(log q_d + s_d), q = softmax(z), with
// z-independent s_d, into grad[off+j] and the packed hess block over rows and
// columns off..off+len(z)−1, and returns F. With r_d = log q_d + s_d − F,
//
//	∂F/∂z_j = q_j·r_j,   ∂²F/∂z_j∂z_l = δ_jl·q_j(r_j + 1) − q_j q_l(r_j + r_l + 1),
//
// the blocks q_j(δ_jl − q_l) applied to r. log q_d is z_d − lse(z), never the
// log of q_d, so a q_d that underflows to 0 contributes exactly 0. q and r
// are the caller's buffers, len(z) each; q is left holding the softmax for
// the caller's cross terms.
func softmaxTerm(z, s, q, r []float64, off int, grad, hess []float64) float64 {
	lse := mathx.LogSumExp(z)
	var f float64
	for d := range z {
		ld := z[d] - lse
		q[d] = math.Exp(ld)
		r[d] = ld + s[d]
		f += q[d] * r[d]
	}
	for d := range r {
		r[d] -= f
	}
	for j := range z {
		grad[off+j] = q[j] * r[j]
		row := hess[packedIdx(off+j, off):]
		for l := 0; l <= j; l++ {
			h := -q[j] * q[l] * (r[j] + r[l] + 1)
			if l == j {
				h += q[j] * (r[j] + 1)
			}
			row[l] = h
		}
	}
	return f
}

// klNormal returns KL(N(x, e^y) || N(m, v)) and its derivatives in the mean
// x and the log-variance y. The Hessian is diagonal: ∂²/∂x∂y = 0.
func klNormal(x, y, m, v float64) (val, gx, gy, hxx, hyy float64) {
	d := x - m
	ev := math.Exp(y) / v
	val = 0.5 * (ev + d*d/v - 1 - y + math.Log(v))
	return val, d / v, 0.5 * (ev - 1), 1 / v, 0.5 * ev
}

// addProduct adds w·inner to the packed result (val, grad, hess) by the
// chain rule ∇²(w·inner) = w·∇²inner + ∇w⊗∇inner + ∇inner⊗∇w + inner·∇²w.
// w depends on result coordinates 0 and 1 (the type logits); inner on the
// coordinates idx, which are increasing and past 1, so the two blocks are
// disjoint and every entry written lies in the lower triangle.
func addProduct(val *float64, grad, hess []float64, w *pairNum, inner *typeNum, idx []int) {
	*val += w.Val * inner.Val
	grad[0] += inner.Val * w.Grad[0]
	grad[1] += inner.Val * w.Grad[1]
	for k := range w.Hess {
		hess[k] += inner.Val * w.Hess[k]
	}
	for k, kg := range idx {
		gk := inner.Grad[k]
		grad[kg] += w.Val * gk
		row := hess[packedIdx(kg, 0):]
		row[0] += w.Grad[0] * gk
		row[1] += w.Grad[1] * gk
		ih := inner.Hess[packedIdx(k, 0):]
		for l := 0; l <= k; l++ {
			row[idx[l]] += w.Val * ih[l]
		}
	}
}

// computeBrightMoments differentiates the flux moments with respect to the
// brightness subspace at the current parameters. Each moment is χ_t(a)·E with
// E = exp(α·m + γ·v) touching only type t's bmTDim block, where log ℓ_b has
// mean m = r1 + Σ β_i c1_i and variance v = r2 + Σ β_i² c2_i (E[ℓ_b]:
// α, γ = 1, ½; E[ℓ_b²]: 2, 2). With u = α∇m + γ∇v,
//
//	∇E = E·u,   ∇²E = E·(u uᵀ + γ·∇²v),
//
// and ∇²v = diag(∇v) because each term of v is the exponential of a single
// log-variance. E's values come from model.FluxMoments; the χ coupling is
// added by addProduct. All three tiers read the result.
func (s *Scratch) computeBrightMoments(theta *model.Params) *brightMoments {
	bm := &s.bm
	*bm = brightMoments{}
	chi := typeWeights(theta)
	c := theta.Constrained()
	var e typeNum
	for t := 0; t < model.NumTypes; t++ {
		m1, m2 := model.FluxMoments(c.R1[t], c.R2[t], c.C1[t], c.C2[t])
		idx := klTMap[t][:bmTDim]
		for b := 0; b < model.NumBands; b++ {
			var dm, dv [bmTDim]float64 // ∇m, ∇v over the block
			dm[0] = 1
			dv[1] = c.R2[t]
			for i := 0; i < model.NumColors; i++ {
				beta := model.BandCoeff[b][i]
				dm[2+i] = beta
				dv[2+model.NumColors+i] = beta * beta * c.C2[t][i]
			}
			first, second := &bm.A[b], &bm.C[b]
			if t == model.Gal {
				first, second = &bm.B[b], &bm.D[b]
			}
			fluxInner(&e, m1[b], 1, 0.5, &dm, &dv)
			addProduct(&first.Val, first.Grad[:], first.Hess[:], &chi[t], &e, idx)
			fluxInner(&e, m2[b], 2, 2, &dm, &dv)
			addProduct(&second.Val, second.Grad[:], second.Hess[:], &chi[t], &e, idx)
		}
	}
	return bm
}

// fluxInner fills the leading bmTDim block of e with E = exp(α·m + γ·v),
// given its value and ∇m, ∇v (see computeBrightMoments).
func fluxInner(e *typeNum, val, alpha, gamma float64, dm, dv *[bmTDim]float64) {
	var u [bmTDim]float64
	for k := range u {
		u[k] = alpha*dm[k] + gamma*dv[k]
	}
	e.Val = val
	for k := range u {
		e.Grad[k] = val * u[k]
		row := e.Hess[packedIdx(k, 0):]
		for l := 0; l <= k; l++ {
			row[l] = val * u[k] * u[l]
		}
		row[k] += val * gamma * dv[k]
	}
}

// computeKL returns the total KL divergence from the priors with derivatives
// in the KL subspace (global indices 6..43):
//
//	KL(q(a)||p(a)) + Σ_t w_t·[KL_r(t) + Σ_d q(k=d)·(log q(k=d)/p(k=d) + KL_c(t,d))]
//
// with w_t = q(a=t) + klWeightFloor. The normal KLs (KL_r, and KL_c summed
// over colors) have diagonal derivatives in each mean and log-variance; the
// two softmax-weighted sums go through softmaxTerm, with the colors' cross
// terms ∂²/∂k_d∂x = q_d·(∂KL_c(t,d)/∂x − Σ_e q_e ∂KL_c(t,e)/∂x). Each
// type's bracket touches only its klTDim block and meets the type logits
// only through the scalar weight, so addProduct assembles the total. All
// three tiers read the result.
func (sc *Scratch) computeKL(theta *model.Params, priors *model.Priors) *klResult {
	out := &sc.klOut
	*out = klResult{}
	a := [model.NumTypes]float64{theta[model.ParamTypeStar], theta[model.ParamTypeGal]}
	s := [model.NumTypes]float64{-logc(1 - priors.ProbGal), -logc(priors.ProbGal)}
	var q, r [model.NumTypes]float64
	out.Val = softmaxTerm(a[:], s[:], q[:], r[:], 0, out.Grad[:], out.Hess[:])

	// The type-conditional KL is weighted by q(a=t) with a small floor: when
	// one type's probability collapses, its brightness and color parameters
	// would otherwise be untethered (zero gradient from both likelihood and
	// KL) and could freeze at arbitrary values that later poison mixture
	// summaries. The floor keeps them anchored to the prior at negligible
	// cost to the bound.
	chi := typeWeights(theta)
	var inner typeNum
	for t := 0; t < model.NumTypes; t++ {
		klTypeInner(&inner, theta, priors, t)
		w := chi[t]
		w.Val += klWeightFloor
		addProduct(&out.Val, out.Grad[:], out.Hess[:], &w, &inner, klTMap[t][:])
	}
	return out
}

// klTypeInner fills inner with type t's bracket of computeKL over its klTDim
// block.
func klTypeInner(inner *typeNum, theta *model.Params, priors *model.Priors, t int) {
	*inner = typeNum{}
	idx := &klTMap[t]
	x := func(k int) float64 { return theta[6+idx[k]] }

	// Log-normal brightness against the log-normal prior (normal KL on the
	// log scale).
	pm, psd := priors.R1Mean[t], priors.R1SD[t]
	klR, g0, g1, h00, h11 := klNormal(x(0), x(1), pm, psd*psd)
	inner.Grad[0], inner.Grad[1] = g0, g1
	inner.Hess[packedIdx(0, 0)], inner.Hess[packedIdx(1, 1)] = h00, h11

	// Colors against each prior component: KL_c(t,d) and its per-color
	// derivatives in the mean (gm, hm) and log-variance (gv, hv).
	var gm, gv, hm, hv [model.NumPriorComps][model.NumColors]float64
	var q, r, s [model.NumPriorComps]float64
	for d := 0; d < model.NumPriorComps; d++ {
		var kc float64
		for i := 0; i < model.NumColors; i++ {
			v, g1, g2, h1, h2 := klNormal(x(2+i), x(2+model.NumColors+i),
				priors.CMean[t][d][i], priors.CVar[t][d][i])
			kc += v
			gm[d][i], gv[d][i], hm[d][i], hv[d][i] = g1, g2, h1, h2
		}
		s[d] = kc - logc(priors.KWeight[t][d])
	}

	// Responsibilities: the categorical KL and the colors' weighted sum in
	// one softmax term.
	var z [model.NumPriorComps]float64
	for d := range z {
		z[d] = x(bmTDim + d)
	}
	inner.Val = klR + softmaxTerm(z[:], s[:], q[:], r[:], bmTDim, inner.Grad[:], inner.Hess[:])

	for i := 0; i < model.NumColors; i++ {
		ci, vi := 2+i, 2+model.NumColors+i
		var g1, g2, h1, h2 float64
		for d := 0; d < model.NumPriorComps; d++ {
			g1 += q[d] * gm[d][i]
			g2 += q[d] * gv[d][i]
			h1 += q[d] * hm[d][i]
			h2 += q[d] * hv[d][i]
		}
		inner.Grad[ci], inner.Grad[vi] = g1, g2
		inner.Hess[packedIdx(ci, ci)], inner.Hess[packedIdx(vi, vi)] = h1, h2
		for d := 0; d < model.NumPriorComps; d++ {
			row := inner.Hess[packedIdx(bmTDim+d, 0):]
			row[ci] = q[d] * (gm[d][i] - g1)
			row[vi] = q[d] * (gv[d][i] - g2)
		}
	}
}

// klWeightFloor anchors the unused source type's parameters to the prior.
const klWeightFloor = 1e-3

func logc(p float64) float64 {
	return math.Log(mathx.Clamp(p, mathx.Eps, 1))
}
