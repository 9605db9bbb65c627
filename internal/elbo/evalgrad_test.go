package elbo

import (
	"math"
	"testing"

	"celeste/internal/model"
	"celeste/internal/rng"
)

// compareGradToFull pins one EvalGradInto evaluation against EvalInto on the
// same problem and parameters: value and gradient within 1e-12 relative
// (they compute identical expressions; the tolerance only absorbs
// compiler-level reassociation), visit counts exactly equal.
func compareGradToFull(t *testing.T, pb *Problem, th *model.Params, label string) {
	t.Helper()
	sFull := NewScratch()
	want := pb.EvalInto(th, sFull)
	sGrad := NewScratch()
	got := pb.EvalGradInto(th, sGrad)

	if math.Abs(got.Value-want.Value) > 1e-12*(1+math.Abs(want.Value)) {
		t.Errorf("%s: value %.17g, full tier %.17g", label, got.Value, want.Value)
	}
	var gnorm float64
	for i := range want.Grad {
		gnorm = math.Max(gnorm, math.Abs(want.Grad[i]))
	}
	for i := range want.Grad {
		if math.Abs(got.Grad[i]-want.Grad[i]) > 1e-12*(math.Abs(want.Grad[i])+1e-3*gnorm+1) {
			t.Errorf("%s: grad[%d] = %.17g, full tier %.17g", label, i, got.Grad[i], want.Grad[i])
		}
	}
	if got.Visits != want.Visits {
		t.Errorf("%s: visits %d, full tier %d", label, got.Visits, want.Visits)
	}
}

// TestEvalGradIntoMatchesEvalInto is the differential property test for the
// gradient tier at the objective level, over randomized sources and patch
// geometries (mirroring the PR-4 kernel-vs-reference pattern).
func TestEvalGradIntoMatchesEvalInto(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		pb, theta := testPatchProblem(300 + uint64(trial))
		th := *theta
		// Random perturbations, including pushes toward the patch corner
		// (asymmetric culling) and collapsed galaxy scales.
		th[model.ParamRA] += 3 * 1.1e-4 * r.Normal()
		th[model.ParamDec] += 3 * 1.1e-4 * r.Normal()
		if trial%3 == 1 {
			th[model.ParamGalLogScale] -= 1 + r.Float64()
		}
		if trial%4 == 2 {
			th[model.ParamTypeLogOdds] -= 3 * r.Normal()
		}
		compareGradToFull(t, pb, &th, "trial")
	}
}

// FuzzEvalGradVsEvalInto cross-checks the gradient tier against the full
// tier on fuzzer-chosen source parameters over the fixed two-patch problem.
func FuzzEvalGradVsEvalInto(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(2.5, -1.5, 1.2, -0.8, 2.0)
	f.Add(-4.0, 4.0, -2.0, 3.0, -1.5)
	f.Fuzz(func(t *testing.T, dPos, dType, dShape, dFlux, dScale float64) {
		for _, v := range []float64{dPos, dType, dShape, dFlux, dScale} {
			if math.IsNaN(v) || math.Abs(v) > 16 {
				return
			}
		}
		pb, theta := testPatchProblem(1000)
		th := *theta
		th[model.ParamRA] += dPos * 1.1e-4
		th[model.ParamDec] -= dPos * 0.7e-4
		th[model.ParamTypeLogOdds] -= dType
		th[model.ParamGalABLogit] += dShape
		th[model.ParamGalAngle] += dShape
		th[model.ParamGalLogScale] += dScale * 0.25
		th[model.ParamR1] += dFlux * 0.25
		th[model.ParamR1+1] -= dFlux * 0.25

		sFull := NewScratch()
		want := pb.EvalInto(&th, sFull)
		if math.IsNaN(want.Value) {
			return // degenerate corner of parameter space; nothing to pin
		}
		got := pb.EvalGradInto(&th, NewScratch())
		if math.Abs(got.Value-want.Value) > 1e-12*(1+math.Abs(want.Value)) {
			t.Fatalf("value %.17g, full tier %.17g", got.Value, want.Value)
		}
		var gnorm float64
		for i := range want.Grad {
			gnorm = math.Max(gnorm, math.Abs(want.Grad[i]))
		}
		for i := range want.Grad {
			if math.Abs(got.Grad[i]-want.Grad[i]) > 1e-12*(math.Abs(want.Grad[i])+1e-3*gnorm+1) {
				t.Fatalf("grad[%d] = %.17g, full tier %.17g", i, got.Grad[i], want.Grad[i])
			}
		}
		if got.Visits != want.Visits {
			t.Fatalf("visits %d, full tier %d", got.Visits, want.Visits)
		}
	})
}
