package vi

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/model"
	"celeste/internal/opt"
)

// TestDecrementStop binds FitWith's Newton-decrement stop on the package's
// star and galaxy fixtures. The same Scratch drives opt.NewtonTRWS twice with
// FitWith's settings: once under the gradient-only rule (DecrementTol 0) and
// once as a reference polished far past both stops (300 iterations, gradient
// tolerance 1e-9). FitWith must stop on the decrement in fewer iterations than
// the gradient-only rule, with an ELBO within 2·decrementTol of the reference
// and a distance from it, in the reference's exact-Hessian norm, of at most
// 2·√(2·decrementTol): the decrement's own bound, with a factor of two for
// the quadratic model's error.
//
// The one-epoch galaxy never stops that way: every fresh step it takes is
// clipped by the radius (its near-null star-branch directions keep a gradient
// at the eigensolver's noise floor) or meets noise-level negative curvature.
// A clipped step must never stop a fit, so there FitWith must be the
// gradient-only run, bit for bit.
func TestDecrementStop(t *testing.T) {
	for _, tc := range []struct {
		name      string
		truth     model.CatalogEntry
		seed      uint64
		epochs    int
		neverStop bool
	}{
		{"star/101x2", starTruth(), 101, 2, false},
		{"star/303x1", starTruth(), 303, 1, false},
		{"star/404x1", starTruth(), 404, 1, false},
		{"galaxy/202x3", galTruth(), 202, 3, false},
		{"galaxy/606x1", galTruth(), 606, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.epochs > 1 {
				t.Skip("multi-epoch fixtures run at full size")
			}
			pb, init := makeScene(t, tc.seed, tc.truth, tc.epochs)
			s := NewScratch()
			var o Options
			o.defaults()

			// run drives the optimizer on s the way FitWith does, under tro.
			run := func(tro opt.TROptions) (model.Params, opt.Result) {
				s.pb = pb
				defer func() { s.pb = nil }()
				res := opt.NewtonTRWS(s, init[:], s.ws, tro)
				var x model.Params
				copy(x[:], res.X)
				return x, res
			}
			gradOnly := s.trOptions(pb, o)
			gradOnly.DecrementTol = 0
			xParent, parent := run(gradOnly)
			ref := gradOnly
			ref.MaxIter, ref.GradTol = 300, 1e-9
			xRef, reference := run(ref)

			fit := FitWith(pb, init, Options{}, s)
			t.Logf("FitWith %d iterations (%s); gradient-only rule %d (%s); reference %d (%s)",
				fit.Iters, fit.Status, parent.Iters, parent.Status, reference.Iters, reference.Status)
			if tc.neverStop {
				if fit.Iters != parent.Iters || fit.Params != xParent || fit.Status != parent.Status {
					t.Errorf("FitWith (%d iterations, %s) differs from the gradient-only run (%d, %s)",
						fit.Iters, fit.Status, parent.Iters, parent.Status)
				}
				return
			}
			if fit.Status != "Newton decrement below tolerance" || !fit.Converged {
				t.Errorf("FitWith stopped with %q (converged %v), want the decrement stop", fit.Status, fit.Converged)
			}
			if fit.Iters >= parent.Iters {
				t.Errorf("FitWith took %d iterations, the gradient-only rule %d", fit.Iters, parent.Iters)
			}

			gap := -reference.F - fit.ELBO
			if !(math.Abs(gap) <= 2*decrementTol) {
				t.Errorf("FitWith's ELBO is %.3g nats from the reference, want within %g", gap, 2*decrementTol)
			}
			// √(dᵀH d), H the negated ELBO's exact Hessian at the reference.
			s.pb = pb
			_, _, h := s.Full(xRef[:])
			s.pb = nil
			var d [model.ParamDim]float64
			for i := range d {
				d[i] = fit.Params[i] - xRef[i]
			}
			dist := math.Sqrt(linalg.QuadForm(h, d[:]))
			if bound := 2 * math.Sqrt(2*decrementTol); !(dist <= bound) {
				t.Errorf("FitWith is %.3g from the reference in its Hessian norm, want ≤ %.3g", dist, bound)
			}
			t.Logf("ELBO %.2e nats below the reference, %.3f from it in its Hessian norm", gap, dist)
		})
	}
}
