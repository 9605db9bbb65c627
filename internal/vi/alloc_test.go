package vi_test

import (
	"testing"

	"celeste/internal/benchfix"
	"celeste/internal/vi"
)

// TestFitWithZeroAllocSteadyState pins the tentpole guarantee at the fit
// level: a warm Scratch makes an entire Newton trust-region fit — every
// derivative evaluation, ratio test, Cholesky factorization, and
// eigendecomposition — allocation-free. At the seed one such fit performed
// ~75k heap allocations.
func TestFitWithZeroAllocSteadyState(t *testing.T) {
	pb, init := benchfix.SingleSourceScene(11)
	s := vi.NewScratch()
	opts := vi.Options{MaxIter: 25, GradTol: 1e-4}
	vi.FitWith(pb, init, opts, s) // warm every buffer

	if allocs := testing.AllocsPerRun(3, func() {
		vi.FitWith(pb, init, opts, s)
	}); allocs != 0 {
		t.Errorf("FitWith allocates %v objects per run in steady state, want 0", allocs)
	}
}

// TestFitWithScratchReuse guards the scratch contract: a fit in a fresh
// scratch and one in a reused scratch (run twice to exercise recycling) must
// agree exactly — buffer reuse cannot change the optimization trajectory.
func TestFitWithScratchReuse(t *testing.T) {
	pb, init := benchfix.SingleSourceScene(13)
	opts := vi.Options{MaxIter: 20, GradTol: 1e-4}

	fresh := vi.FitWith(pb, init, opts, vi.NewScratch())
	s := vi.NewScratch()
	vi.FitWith(pb, init, opts, s)
	reused := vi.FitWith(pb, init, opts, s)

	if fresh.ELBO != reused.ELBO || fresh.Iters != reused.Iters ||
		fresh.Visits != reused.Visits || fresh.Params != reused.Params {
		t.Errorf("scratch reuse changed the fit: ELBO %v vs %v, iters %d vs %d",
			fresh.ELBO, reused.ELBO, fresh.Iters, reused.Iters)
	}
}
