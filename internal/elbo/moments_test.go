package elbo

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/ad"
	"celeste/internal/model"
	"celeste/internal/rng"
)

// subspaceVars returns the ParamDim parameters as AD inputs over the n coordinates
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

// randomOracleTheta draws parameters over the range fits visit: type
// log-odds of a few units, the difference of two normals of SD 3, fluxes and
// colors around the priors, variances from tight to broad.
func randomOracleTheta(r *rng.Source) model.Params {
	var th model.Params
	th[model.ParamRA], th[model.ParamDec] = 1e-3*r.Normal(), 1e-3*r.Normal()
	for i := 2; i < 6; i++ {
		th[i] = r.Normal()
	}
	star, gal := 3*r.Normal(), 3*r.Normal()
	th[model.ParamTypeLogOdds] = (gal - star) / model.LogOddsScale
	for t := 0; t < model.NumTypes; t++ {
		th[model.ParamR1+t] = 1 + 1.5*r.Normal()
		th[model.ParamR2+t] = -2 + 1.5*r.Normal()
		for i := 0; i < model.NumColors; i++ {
			th[model.ParamC1+4*t+i] = r.Normal()
			th[model.ParamC2+4*t+i] = -2 + 1.5*r.Normal()
		}
	}
	return th
}

// saturate drives one softmax of the KL to a single entry, gap nats above
// every other. Block −1 is the type: its log-odds go to −gap, star gap nats
// above galaxy (to +gap when last is set). Block t is type t's profiled
// color responsibilities q*_d ∝ π_d·exp(−KL_c(t,d)): one color mean is
// moved until the log-weight of the first prior component (the last when
// last is set) exceeds every other component's by gap. Under DefaultPriors
// those two components sit at the ends of the color locus, and the moved
// color (the reddest for the first component, the bluest for the last) only
// dims one outer band, so the flux moments stay finite at any gap.
func saturate(th *model.Params, priors *model.Priors, block int, gap float64, last bool) {
	if block < 0 {
		th[model.ParamTypeLogOdds] = -gap / model.LogOddsScale
		if last {
			th[model.ParamTypeLogOdds] = gap / model.LogOddsScale
		}
		return
	}
	top, i, dir := 0, model.NumColors-1, -1.0
	if last {
		top, i, dir = model.NumPriorComps-1, 0, 1.0
	}
	ci := model.ParamC1 + model.NumColors*block + i
	// lead returns the margins of component top's log-weight over each
	// other's with the mean moved by offset. The components share their
	// variances, so each margin is linear in the offset and grows with it;
	// two evaluations give every line, and the offset is the least one at
	// which no margin is below gap.
	lead := func(offset float64) (m [model.NumPriorComps]float64) {
		th[ci] = priors.CMean[block][top][i] + dir*offset
		for d := range m {
			m[d] = logc(priors.KWeight[block][top]) - logc(priors.KWeight[block][d])
			for j := 0; j < model.NumColors; j++ {
				x, y := th[model.ParamC1+model.NumColors*block+j], th[model.ParamC2+model.NumColors*block+j]
				klTop, _, _, _, _ := klNormal(x, y, priors.CMean[block][top][j], priors.CVar[block][top][j])
				klD, _, _, _, _ := klNormal(x, y, priors.CMean[block][d][j], priors.CVar[block][d][j])
				m[d] += klD - klTop
			}
		}
		return m
	}
	m0, m1 := lead(0), lead(1)
	offset := math.Inf(-1)
	for d := range m0 {
		if d != top {
			offset = math.Max(offset, (gap-m0[d])/(m1[d]-m0[d]))
		}
	}
	lead(offset)
}

var saturationGaps = []float64{30, 100, 400, 800}

// oracleThetas returns the oracle tests' parameter rows: 200 random draws
// (20 under -short), then every saturation gap in the type block and both
// types' color responsibilities under DefaultPriors, on a random draw.
func oracleThetas() []model.Params {
	priors := model.DefaultPriors()
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
				saturate(&th, &priors, block, gap, last)
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
	want := refKL(subspaceVars(th, 6, brightDim), priors)
	compareToOracle(t, label, got.Val, got.Grad[:], got.Hess[:], want)
}

// checkBrightMoments compares computeBrightMoments at th with refFluxMoments.
func checkBrightMoments(t *testing.T, s *Scratch, th *model.Params, label string) {
	t.Helper()
	got := s.computeBrightMoments(th)
	chi, el, el2 := refFluxMoments(subspaceVars(th, 6, brightDim))
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
// AD of the same formula, over random parameters and saturated softmaxes.
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
// parameters (seed) with a fuzzed saturation gap in the type log-odds and a
// color offset that gives the star's profiled responsibilities a fuzzed gap
// (kGap), the far side of which underflows to exactly 0.
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
		saturate(&th, &priors, -1, math.Abs(typeGap), typeGap < 0)
		saturate(&th, &priors, model.Star, math.Abs(kGap), kGap < 0)
		checkKL(t, s, &th, &priors, "fuzz")
		checkBrightMoments(t, s, &th, "fuzz")
	})
}

// TestSaturatedLogitsFinite: type log-odds far from 0, or a color
// offset that puts one prior component's profiled responsibility far above
// the rest, underflows the siblings' softmax weights to exactly 0. Every tier
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
				saturate(&th, pb.Priors, block, gap, last)
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
