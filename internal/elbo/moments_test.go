package elbo

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/ad"
	"celeste/internal/model"
	"celeste/internal/rng"
)

// subspaceVars returns the 44 parameters as AD inputs over the n coordinates
// starting at first (constants elsewhere), so an oracle's derivatives come
// out in the same packed subspace layout as computeKL's and
// computeBrightMoments'.
func subspaceVars(theta *model.Params, first, n int) []*ad.Num {
	s := ad.NewSpace(n)
	xs := make([]*ad.Num, model.ParamDim)
	for i, v := range theta {
		if i >= first && i < first+n {
			xs[i] = s.Var(v, i-first)
		} else {
			xs[i] = s.Const(v)
		}
	}
	return xs
}

// randomOracleTheta draws parameters over the range fits visit: type and
// responsibility logits a few units apart, fluxes and colors around the
// priors, variances from tight to broad.
func randomOracleTheta(r *rng.Source) model.Params {
	var th model.Params
	th[model.ParamRA], th[model.ParamDec] = 1e-3*r.Normal(), 1e-3*r.Normal()
	for i := 2; i < 6; i++ {
		th[i] = r.Normal()
	}
	th[model.ParamTypeStar], th[model.ParamTypeGal] = 3*r.Normal(), 3*r.Normal()
	for t := 0; t < model.NumTypes; t++ {
		th[model.ParamR1+t] = 1 + 1.5*r.Normal()
		th[model.ParamR2+t] = -2 + 1.5*r.Normal()
		for i := 0; i < model.NumColors; i++ {
			th[model.ParamC1+4*t+i] = r.Normal()
			th[model.ParamC2+4*t+i] = -2 + 1.5*r.Normal()
		}
		for d := 0; d < model.NumPriorComps; d++ {
			th[model.ParamK+model.NumPriorComps*t+d] = 3 * r.Normal()
		}
	}
	return th
}

// saturate raises one logit of a block gap above every other logit of that
// block: the type logits (block −1) or type t's responsibilities (block t).
// The first logit of the block is raised, or the last one when last is set.
func saturate(th *model.Params, block int, gap float64, last bool) {
	first, n := model.ParamTypeStar, model.NumTypes
	if block >= 0 {
		first, n = model.ParamK+model.NumPriorComps*block, model.NumPriorComps
	}
	top := first
	if last {
		top = first + n - 1
	}
	m := math.Inf(-1)
	for i := first; i < first+n; i++ {
		if i != top {
			m = math.Max(m, th[i])
		}
	}
	th[top] = m + gap
}

var saturationGaps = []float64{30, 100, 400, 800}

// oracleThetas returns the oracle tests' parameter rows: 200 random draws
// (20 under -short), then every saturation gap in the type block and both
// responsibility blocks, on a random draw.
func oracleThetas() []model.Params {
	n := 200
	if testing.Short() {
		n = 20
	}
	r := rng.New(2901)
	var out []model.Params
	for i := 0; i < n; i++ {
		out = append(out, randomOracleTheta(r))
	}
	for _, gap := range saturationGaps {
		for block := -1; block < model.NumTypes; block++ {
			for _, last := range []bool{false, true} {
				th := randomOracleTheta(r)
				saturate(&th, block, gap, last)
				out = append(out, th)
			}
		}
	}
	return out
}

// oracleTol is the agreement the closed forms keep with the AD oracle:
// |got − want| ≤ oracleTol·(|want| + 1) for the value and every gradient and
// Hessian entry.
const oracleTol = 1e-12

// compareToOracle checks a closed-form value, gradient and packed Hessian
// against an AD result of the same subspace layout.
func compareToOracle(t *testing.T, label string, val float64, grad, hess []float64, want *ad.Num) {
	t.Helper()
	near := func(g, w float64) bool { return math.Abs(g-w) <= oracleTol*(math.Abs(w)+1) }
	if !near(val, want.Val) {
		t.Errorf("%s: value %.17g, oracle %.17g", label, val, want.Val)
	}
	for i, w := range want.Grad {
		if !near(grad[i], w) {
			t.Errorf("%s: grad[%d] %.17g, oracle %.17g", label, i, grad[i], w)
		}
	}
	for k, w := range want.Hess {
		if !near(hess[k], w) {
			t.Errorf("%s: packed hess[%d] %.17g, oracle %.17g", label, k, hess[k], w)
		}
	}
}

// checkKL compares computeKL at th with refKL.
func checkKL(t *testing.T, s *Scratch, th *model.Params, priors *model.Priors, label string) {
	t.Helper()
	got := s.computeKL(th, priors)
	want := refKL(subspaceVars(th, klGlobal[0], klDim), priors)
	compareToOracle(t, label, got.Val, got.Grad[:], got.Hess[:], want)
}

// checkBrightMoments compares computeBrightMoments at th with refFluxMoments.
func checkBrightMoments(t *testing.T, s *Scratch, th *model.Params, label string) {
	t.Helper()
	got := s.computeBrightMoments(th)
	chi, el, el2 := refFluxMoments(subspaceVars(th, brightGlobal[0], brightDim))
	for b := 0; b < model.NumBands; b++ {
		for _, m := range []struct {
			name string
			got  *bmNum
			want *ad.Num
		}{
			{"A", &got.A[b], ad.Mul(chi[model.Star], el[model.Star][b])},
			{"B", &got.B[b], ad.Mul(chi[model.Gal], el[model.Gal][b])},
			{"C", &got.C[b], ad.Mul(chi[model.Star], el2[model.Star][b])},
			{"D", &got.D[b], ad.Mul(chi[model.Gal], el2[model.Gal][b])},
		} {
			compareToOracle(t, fmt.Sprintf("%s %s[%d]", label, m.name, b),
				m.got.Val, m.got.Grad[:], m.got.Hess[:], m.want)
		}
	}
}

// TestKLMatchesADOracle pins the closed-form KL derivatives to forward-mode
// AD of the same formula, over random parameters and saturated logits.
func TestKLMatchesADOracle(t *testing.T) {
	priors := model.DefaultPriors()
	s := NewScratch()
	for i, th := range oracleThetas() {
		checkKL(t, s, &th, &priors, fmt.Sprintf("row %d", i))
	}
}

// TestBrightMomentsMatchADOracle pins the closed-form flux-moment
// derivatives to forward-mode AD, over the same rows.
func TestBrightMomentsMatchADOracle(t *testing.T) {
	s := NewScratch()
	for i, th := range oracleThetas() {
		checkBrightMoments(t, s, &th, fmt.Sprintf("row %d", i))
	}
}

// FuzzKLVsADOracle runs both closed forms against the AD oracle on random
// parameters (seed) with a fuzzed saturation gap in the type logits and in
// the star responsibilities.
func FuzzKLVsADOracle(f *testing.F) {
	for i, gap := range saturationGaps {
		f.Add(uint64(i), gap, -gap)
	}
	f.Add(uint64(7), 0.0, 0.0)
	priors := model.DefaultPriors()
	s := NewScratch()
	f.Fuzz(func(t *testing.T, seed uint64, typeGap, kGap float64) {
		if !(math.Abs(typeGap) <= 1000) || !(math.Abs(kGap) <= 1000) {
			t.Skip("gap outside the tested range")
		}
		th := randomOracleTheta(rng.New(seed))
		saturate(&th, -1, math.Abs(typeGap), typeGap < 0)
		saturate(&th, model.Star, math.Abs(kGap), kGap < 0)
		checkKL(t, s, &th, &priors, "fuzz")
		checkBrightMoments(t, s, &th, "fuzz")
	})
}

// TestSaturatedLogitsFinite: a type or responsibility logit far above the
// rest underflows its siblings' softmax weights to exactly 0. Every tier
// must stay finite there (0·log 0 must not appear), and the KL — one
// implementation read by all three tiers — must be bit-identical across
// them, which a problem without patches exposes as its whole value.
func TestSaturatedLogitsFinite(t *testing.T) {
	pb, theta := testPatchProblem(40)
	priorOnly := &Problem{Priors: pb.Priors, PosPenalty: pb.PosPenalty, PosAnchor: pb.PosAnchor}
	for _, gap := range saturationGaps {
		for block := -1; block < model.NumTypes; block++ {
			for _, last := range []bool{false, true} {
				th := *theta
				saturate(&th, block, gap, last)
				label := fmt.Sprintf("gap %g block %d last %v", gap, block, last)

				full := pb.EvalInto(&th, NewScratch())
				grad := pb.EvalGradInto(&th, NewScratch())
				val, _ := pb.EvalValueWith(&th, NewScratch())
				finite := func(what string, xs ...float64) {
					for i, x := range xs {
						if math.IsNaN(x) || math.IsInf(x, 0) {
							t.Fatalf("%s: %s[%d] = %v", label, what, i, x)
						}
					}
				}
				finite("full value", full.Value)
				finite("full grad", full.Grad[:]...)
				finite("full hess", full.Hess.Data...)
				finite("grad-tier value", grad.Value)
				finite("grad-tier grad", grad.Grad[:]...)
				finite("value tier", val)

				kFull := priorOnly.EvalInto(&th, NewScratch()).Value
				kGrad := priorOnly.EvalGradInto(&th, NewScratch()).Value
				kVal, _ := priorOnly.EvalValueWith(&th, NewScratch())
				if kFull != kGrad || kFull != kVal {
					t.Errorf("%s: KL differs across tiers: full %.17g, grad %.17g, value %.17g",
						label, kFull, kGrad, kVal)
				}
			}
		}
	}
}
