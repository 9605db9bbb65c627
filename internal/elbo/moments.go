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

// brightDim is the size of the brightness subspace, global indices
// [6, ParamDim): the type log-odds plus r1, r2, c1[4], c2[4] for each
// type. Position and galaxy shape are point estimates with flat priors, so
// the KL from the priors lives in this subspace too.
const brightDim = model.ParamDim - 6

// bmTDim is the size of one type's block: r1, r2, and the color means and
// log-variances.
const bmTDim = 2 + 2*model.NumColors

// typeMap maps a type's block indices to brightness-subspace indices
// (global−6): [r1, r2, c1[0..3], c2[0..3]].
var typeMap = func() [model.NumTypes][bmTDim]int {
	var m [model.NumTypes][bmTDim]int
	for t := 0; t < model.NumTypes; t++ {
		m[t][0] = model.ParamR1 + t - 6
		m[t][1] = model.ParamR2 + t - 6
		for i := 0; i < model.NumColors; i++ {
			m[t][2+i] = model.ParamC1 + 4*t + i - 6
			m[t][2+model.NumColors+i] = model.ParamC2 + 4*t + i - 6
		}
	}
	return m
}()

// Every Hessian below is a lower triangle packed row-wise: entry (i, j),
// i >= j, at i*(i+1)/2 + j.
func packedIdx(i, j int) int { return i*(i+1)/2 + j }

// bmNum is a function of the brightness subspace with its derivatives: one
// assembled flux moment, or the KL total.
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

// logOddsNum is a function of the stored type coordinate u = a/√2
// (brightness-subspace index 0, model.LogOddsScale) with its first two
// derivatives in u.
type logOddsNum struct {
	Val, D1, D2 float64
}

// typeNum is a function of one type's bmTDim block (typeMap order) with its
// derivatives.
type typeNum struct {
	Val  float64
	Grad [bmTDim]float64
	Hess [bmTDim * (bmTDim + 1) / 2]float64
}

// typeWeights returns χ_star = σ(−a) and χ_gal = σ(a) at the type log-odds
// a = √2·u as functions of u. With p = χ_star·χ_gal the derivatives in a are
// dχ_gal/da = p and d²χ_gal/da² = p(χ_star − χ_gal), and χ_star mirrors
// them; both weights come from mathx.Logistic, so no derivative subtracts
// from 1. d/du = √2·d/da.
func typeWeights(theta *model.Params) (chi [model.NumTypes]logOddsNum) {
	a := theta.TypeLogOdds()
	qs, qg := mathx.Logistic(-a), mathx.Logistic(a)
	const k = model.LogOddsScale
	p := k * qs * qg
	h := k * p * (qs - qg)
	chi[model.Star] = logOddsNum{Val: qs, D1: -p, D2: -h}
	chi[model.Gal] = logOddsNum{Val: qg, D1: p, D2: h}
	return chi
}

// typeKL returns KL(q(a) || p(a)) at the type log-odds a against the prior
// log-probabilities lpStar and lpGal, with its first two derivatives in a.
// With q_star = σ(−a), q_gal = σ(a), p = q_star·q_gal and
// r = a − (lpGal − lpStar),
//
//	KL = q_star·(log σ(−a) − lpStar) + q_gal·(log σ(a) − lpGal),
//	dKL/da = p·r,   d²KL/da² = p·(1 + (q_star − q_gal)·r),
//
// because log σ(a) − log σ(−a) = a. Both log σ(±a) come from one
// log(1 + e^a), never from the log of a probability, so a probability that
// underflows to 0 contributes exactly 0.
func typeKL(a, lpStar, lpGal float64) (val, d1, d2 float64) {
	l := math.Max(a, 0) + math.Log1p(math.Exp(-math.Abs(a))) // log(1 + e^a)
	ls, lg := -l, a-l
	qs, qg := math.Exp(ls), math.Exp(lg)
	p, r := qs*qg, a-(lpGal-lpStar)
	return qs*(ls-lpStar) + qg*(lg-lpGal), p * r, p * (1 + (qs-qg)*r)
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
// w depends on result coordinate 0 (the type log-odds); inner on the
// coordinates idx, which are increasing and past 0, so the two blocks are
// disjoint and every entry written lies in the lower triangle.
func addProduct(val *float64, grad, hess []float64, w *logOddsNum, inner *typeNum, idx []int) {
	*val += w.Val * inner.Val
	grad[0] += inner.Val * w.D1
	hess[0] += inner.Val * w.D2
	for k, kg := range idx {
		gk := inner.Grad[k]
		grad[kg] += w.Val * gk
		row := hess[packedIdx(kg, 0):]
		row[0] += w.D1 * gk
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
		idx := typeMap[t][:]
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

// fluxInner fills e with E = exp(α·m + γ·v), given its value and ∇m, ∇v
// (see computeBrightMoments).
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

// computeKL returns the total KL divergence from the priors, with the color
// responsibilities profiled out, and its derivatives in the brightness
// subspace:
//
//	KL(q(a)||p(a)) + Σ_t w_t·[KL_r(t) + G_t],   G_t = −log Σ_d π_td·exp(−KL_c(t,d)),
//
// with w_t = q(a=t) + KLWeightFloor. G_t is the minimum over q(k | a=t) of
// Σ_d q(k=d)·(log q(k=d)/π_td + KL_c(t,d)), attained at
// q*_d = softmax_d(log π_td − KL_c(t,d)), so maximizing the ELBO over the
// other parameters reaches the same optimum as the paper's joint fit. The
// type term is typeKL's. Each type's bracket touches only its bmTDim block
// and meets the type log-odds only through the scalar weight, so addProduct
// assembles the total. All three tiers read the result.
func (sc *Scratch) computeKL(theta *model.Params, priors *model.Priors) *bmNum {
	out := &sc.klOut
	*out = bmNum{}
	const k = model.LogOddsScale
	kl, d1, d2 := typeKL(theta.TypeLogOdds(), logc(1-priors.ProbGal), logc(priors.ProbGal))
	out.Val, out.Grad[0], out.Hess[0] = kl, k*d1, k*k*d2

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
		w.Val += KLWeightFloor
		addProduct(&out.Val, out.Grad[:], out.Hess[:], &w, &inner, typeMap[t][:])
	}
	return out
}

// klTypeInner fills inner with type t's bracket of computeKL over its bmTDim
// block: KL_r(t) + G_t. Each KL_c(t,d) is a sum of per-color normal KLs with
// diagonal Hessians; with g_d its gradient over the color coordinates and
// ḡ = Σ_d q*_d g_d,
//
//	∇G_t = ḡ,   ∇²G_t = Σ_d q*_d·(∇²KL_c(t,d) − (g_d − ḡ)(g_d − ḡ)ᵀ),
//
// the responsibility-weighted curvature less the covariance of the
// gradients under q*: a dense block over the color means and
// log-variances. A q*_d that underflows to 0 contributes exactly 0.
func klTypeInner(inner *typeNum, theta *model.Params, priors *model.Priors, t int) {
	*inner = typeNum{}
	idx := &typeMap[t]
	x := func(k int) float64 { return theta[6+idx[k]] }

	// Log-normal brightness against the log-normal prior (normal KL on the
	// log scale).
	pm, psd := priors.R1Mean[t], priors.R1SD[t]
	klR, g0, g1, h00, h11 := klNormal(x(0), x(1), pm, psd*psd)
	inner.Grad[0], inner.Grad[1] = g0, g1
	inner.Hess[packedIdx(0, 0)], inner.Hess[packedIdx(1, 1)] = h00, h11

	// Colors against each prior component: z_d = log π_td − KL_c(t,d), and
	// KL_c(t,d)'s gradient g and diagonal Hessian h over the color block
	// [c1[0..3], c2[0..3]] (type-block indices 2..9).
	const nc = 2 * model.NumColors
	var z [model.NumPriorComps]float64
	var g, h [model.NumPriorComps][nc]float64
	for d := 0; d < model.NumPriorComps; d++ {
		var kc float64
		for i := 0; i < model.NumColors; i++ {
			v, gm, gv, hm, hv := klNormal(x(2+i), x(2+model.NumColors+i),
				priors.CMean[t][d][i], priors.CVar[t][d][i])
			kc += v
			g[d][i], g[d][model.NumColors+i] = gm, gv
			h[d][i], h[d][model.NumColors+i] = hm, hv
		}
		z[d] = logc(priors.KWeight[t][d]) - kc
	}

	lse := mathx.LogSumExp(z[:])
	inner.Val = klR - lse
	var q [model.NumPriorComps]float64
	var gbar [nc]float64
	for d := range z {
		q[d] = math.Exp(z[d] - lse)
		for k := range gbar {
			gbar[k] += q[d] * g[d][k]
		}
	}
	copy(inner.Grad[2:], gbar[:])
	for d, qd := range q {
		if qd == 0 {
			continue
		}
		var dg [nc]float64
		for k := range dg {
			dg[k] = g[d][k] - gbar[k]
		}
		for k := range dg {
			row := inner.Hess[packedIdx(2+k, 2):]
			for l := 0; l < k; l++ {
				row[l] -= qd * dg[k] * dg[l]
			}
			row[k] += qd * (h[d][k] - dg[k]*dg[k])
		}
	}
}

// KLWeightFloor anchors the unused source type's parameters to the prior
// while the type is undecided. Once it is decided (q(1−q) ≤ 1e-3), a vi fit
// holds that branch where it stands instead, and the floor only keeps the
// held values' KL in the bound. vi's variance tail reads it as part of the
// likely type's KL weight.
const KLWeightFloor = 1e-3

func logc(p float64) float64 {
	return math.Log(mathx.Clamp(p, mathx.Eps, 1))
}
