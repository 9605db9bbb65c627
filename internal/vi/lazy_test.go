package vi

import (
	"testing"

	"celeste/internal/model"
)

// TestLazyFitMatchesEagerQuality pins the three-tier fit against the eager
// reference on both fixture scenes: the lazy default must spend strictly
// fewer full (Hessian) evaluations, record gradient-tier work, and land at
// an ELBO within a small absolute tolerance of the eager optimum (the two
// trajectories differ, so exact equality is not expected).
func TestLazyFitMatchesEagerQuality(t *testing.T) {
	for _, tc := range []struct {
		name   string
		truth  model.CatalogEntry
		seed   uint64
		epochs int
	}{
		{"star", starTruth(), 101, 2},
		{"galaxy", galTruth(), 202, 3},
	} {
		pb, init := makeScene(t, tc.seed, tc.truth, tc.epochs)
		opts := Options{MaxIter: 120, GradTol: 1e-6}
		eager := opts
		eager.EagerHessian = true

		le := FitWith(pb, init, eager, NewScratch())
		ll := FitWith(pb, init, opts, NewScratch())
		if !le.Converged {
			t.Fatalf("%s: eager fit did not converge: %s", tc.name, le.Status)
		}
		if !ll.Converged {
			t.Fatalf("%s: lazy fit did not converge: %s", tc.name, ll.Status)
		}
		if ll.GradEvals == 0 {
			t.Errorf("%s: lazy fit recorded no gradient-tier evaluations", tc.name)
		}
		if le.GradEvals != 0 {
			t.Errorf("%s: eager fit recorded %d gradient-tier evaluations", tc.name, le.GradEvals)
		}
		if ll.FullEvals >= le.FullEvals {
			t.Errorf("%s: lazy fit used %d full evaluations, eager %d",
				tc.name, ll.FullEvals, le.FullEvals)
		}
		// Both converged to 1e-6 gradient tolerance; the optima must agree
		// to well within photon noise (ELBO values are ~1e6).
		if d := ll.ELBO - le.ELBO; d < -0.5 {
			t.Errorf("%s: lazy ELBO %f is below eager %f by %f", tc.name, ll.ELBO, le.ELBO, -d)
		}
		if ll.FinalRadius <= 0 {
			t.Errorf("%s: FinalRadius %v, want > 0", tc.name, ll.FinalRadius)
		}
	}
}

// TestFitWithWarmInitRadius simulates the cross-sweep warm start: re-fitting
// from a converged solution with the cached radius must converge almost
// immediately, and must reach the same optimum as a cold re-fit.
func TestFitWithWarmInitRadius(t *testing.T) {
	pb, init := makeScene(t, 202, galTruth(), 3)
	first := FitWith(pb, init, Options{MaxIter: 120, GradTol: 1e-6}, NewScratch())
	if !first.Converged {
		t.Fatalf("first fit did not converge: %s", first.Status)
	}

	warm := Options{MaxIter: 120, GradTol: 1e-6, InitRadius: 4 * first.FinalRadius}
	re := FitWith(pb, first.Params, warm, NewScratch())
	if !re.Converged {
		t.Fatalf("warm re-fit did not converge: %s", re.Status)
	}
	if re.Iters > 10 {
		t.Errorf("warm re-fit took %d iterations; a converged start should need a handful", re.Iters)
	}
	if d := re.ELBO - first.ELBO; d < -1e-6*(1+first.ELBO) {
		t.Errorf("warm re-fit ELBO %f below first %f", re.ELBO, first.ELBO)
	}
}
