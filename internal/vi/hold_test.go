package vi

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/model"
	"celeste/internal/opt"
)

// thresholdLogOdds returns the two adjacent positive log-odds around the
// decided threshold: below is the largest with q(1−q) > decrementTol, at the
// smallest with q(1−q) ≤ decrementTol, as typeVar computes them.
func thresholdLogOdds(t *testing.T) (below, at float64) {
	t.Helper()
	lo, hi := 1.0, 20.0
	if typeVar(lo) <= decrementTol || !(typeVar(hi) <= decrementTol) {
		t.Fatalf("threshold not bracketed by [%g, %g]", lo, hi)
	}
	for math.Nextafter(lo, hi) != hi {
		mid := math.Float64frombits((math.Float64bits(lo) + math.Float64bits(hi)) / 2)
		if typeVar(mid) <= decrementTol {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi
}

// typeCoord returns the stored type coordinate of ProbGal pg.
func typeCoord(pg float64) float64 {
	return (math.Log(pg) - math.Log1p(-pg)) / model.LogOddsScale
}

// TestHeldBranch: a decided star holds the galaxy's ten brightness and four
// shape coordinates, a decided galaxy the star's ten brightness coordinates,
// and a point short of the threshold holds nothing; the threshold itself
// counts as decided.
func TestHeldBranch(t *testing.T) {
	below, at := thresholdLogOdds(t)
	// No float64 log-odds give exactly decrementTol; at lands within ulps.
	if v := typeVar(at); math.Abs(v-decrementTol) > 1e-15*decrementTol {
		t.Fatalf("q(1−q) = %.17g at the threshold row, want %g to a few ulps", v, decrementTol)
	}
	star := []int{7, 9, 11, 12, 13, 14, 19, 20, 21, 22}
	gal := []int{2, 3, 4, 5, 8, 10, 15, 16, 17, 18, 23, 24, 25, 26}
	for _, tc := range []struct {
		name string
		a    float64
		want []int
	}{
		{"decided star", -10, gal},
		{"decided galaxy", 10, star},
		{"star at the threshold", -at, gal},
		{"galaxy at the threshold", at, star},
		{"star short of the threshold", -below, nil},
		{"galaxy short of the threshold", below, nil},
		{"undecided", 0.3, nil},
		{"even", 0, nil},
		{"star saturated", -800, gal},
		{"galaxy saturated", math.Inf(1), star},
		{"log-odds NaN", math.NaN(), nil},
	} {
		got := heldBranch(tc.a)
		if len(got) != len(tc.want) {
			t.Errorf("%s: heldBranch(%g) holds %v, want %v", tc.name, tc.a, got, tc.want)
			continue
		}
		held := map[int]bool{}
		for _, i := range got {
			held[i] = true
		}
		for _, i := range tc.want {
			if !held[i] {
				t.Errorf("%s: heldBranch(%g) = %v misses coordinate %d", tc.name, tc.a, got, i)
			}
		}
	}
}

// TestFullHoldsBranch: at a decided point Full returns the ELBO's value,
// zero gradient and identity Hessian rows and columns on the held branch,
// and the ELBO's own derivatives everywhere else.
func TestFullHoldsBranch(t *testing.T) {
	pb, init := makeScene(t, 101, starTruth(), 1)
	init[model.ParamTypeLogOdds] = typeCoord(1e-9)
	held := map[int]bool{}
	for _, i := range heldBranch(init.TypeLogOdds()) {
		held[i] = true
	}
	if len(held) != 14 {
		t.Fatalf("a ProbGal 1e-9 start holds %d coordinates, want 14", len(held))
	}

	s := NewScratch()
	s.pb = pb
	g := make([]float64, model.ParamDim)
	h := linalg.NewMat(model.ParamDim, model.ParamDim)
	f := s.Full(init[:], g, h)
	ref := pb.EvalInto(&init, s.es)
	if f != -ref.Value {
		t.Errorf("held value %g, ELBO's %g", f, -ref.Value)
	}
	for i := 0; i < model.ParamDim; i++ {
		if want := -ref.Grad[i]; held[i] && g[i] != 0 || !held[i] && g[i] != want {
			t.Errorf("gradient %d = %g (held %v, ELBO's %g)", i, g[i], held[i], want)
		}
		for j := 0; j < model.ParamDim; j++ {
			want := -ref.Hess.At(i, j)
			if held[i] || held[j] {
				want = 0
				if i == j {
					want = 1
				}
			}
			if h.At(i, j) != want {
				t.Errorf("Hessian (%d, %d) = %g, want %g", i, j, h.At(i, j), want)
			}
		}
	}
}

// TestFitWithHoldsDecidedBranch: a fit started decided never moves the
// unused branch, and it ends on one of the two convergence tests.
func TestFitWithHoldsDecidedBranch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		truth   model.CatalogEntry
		seed    uint64
		probGal float64
	}{
		{"star", starTruth(), 101, 1e-9},
		{"galaxy", galTruth(), 202, 1 - 1e-9},
	} {
		pb, init := makeScene(t, tc.seed, tc.truth, 2)
		init[model.ParamTypeLogOdds] = typeCoord(tc.probGal)
		res := FitWith(pb, init, Options{}, NewScratch())
		if res.Status != opt.StopDecrement && res.Status != opt.StopGradTol {
			t.Errorf("%s: fit stopped by %q after %d iterations", tc.name, res.Status, res.Iters)
		}
		held := heldBranch(init.TypeLogOdds())
		if len(held) == 0 {
			t.Fatalf("%s: start at ProbGal %g holds nothing", tc.name, tc.probGal)
		}
		for _, i := range held {
			if d := math.Abs(res.Params[i] - init[i]); !(d < 1e-9) {
				t.Errorf("%s: held coordinate %d moved %g -> %g", tc.name, i, init[i], res.Params[i])
			}
		}
		if pg := res.Params.Constrained().ProbGal; math.Abs(pg-tc.probGal) > 1e-3 {
			t.Errorf("%s: ProbGal %g, started decided at %g", tc.name, pg, tc.probGal)
		}
		t.Logf("%s: %d iterations, %q", tc.name, res.Iters, res.Status)
	}
}

// TestOptimumHessianFactors: at the converged fits of the bright-star and
// galaxy fixtures, from a star and from a galaxy start, the Hessian Full
// hands the trust region is positive definite, so Cholesky factors it. With
// the type as two softmax logits, their sum was an exact null direction of
// every such Hessian, and Cholesky failed wherever rounding left that
// direction's pivot nonpositive: at two of these four optima.
func TestOptimumHessianFactors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		truth   model.CatalogEntry
		seed    uint64
		nEpochs int
	}{
		{"bright star", starTruth(), 101, 2},
		{"galaxy", galTruth(), 202, 3},
	} {
		pb, init := makeScene(t, tc.seed, tc.truth, tc.nEpochs)
		for _, pg := range []float64{0.05, 0.95} {
			init[model.ParamTypeLogOdds] = typeCoord(pg)
			s := NewScratch()
			res := FitWith(pb, init, Options{}, s)
			if !res.Converged {
				t.Fatalf("%s from ProbGal %g: fit stopped by %q", tc.name, pg, res.Status)
			}
			s.pb = pb
			g := make([]float64, model.ParamDim)
			h := linalg.NewMat(model.ParamDim, model.ParamDim)
			s.Full(res.Params[:], g, h)
			if err := linalg.Cholesky(linalg.NewMat(model.ParamDim, model.ParamDim), h); err != nil {
				t.Errorf("%s from ProbGal %g (ends at %.3g): Hessian at the optimum: %v",
					tc.name, pg, res.Params.Constrained().ProbGal, err)
			}
		}
	}
}
