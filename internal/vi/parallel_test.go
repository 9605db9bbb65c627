package vi

import (
	"math"
	"testing"
)

// TestFitPatchWorkersMatchesSerial locks in the intra-fit parallelism
// contract: a fit with PatchWorkers > 1 must reproduce the serial fit exactly
// — same parameter bits, same ELBO bits, same iteration and evaluation
// counts, same visit totals. CI runs this under -race, which also proves the
// fit accounting (visits, eval seconds) is data-race-free under the fan-out.
func TestFitPatchWorkersMatchesSerial(t *testing.T) {
	truth := galTruth()
	pb, init := makeScene(t, 303, truth, 3)

	serial := FitWith(pb, init, Options{}, NewScratch())
	for _, workers := range []int{2, 4, 8} {
		par := FitWith(pb, init, Options{PatchWorkers: workers}, NewScratch())
		for i := range serial.Params {
			if math.Float64bits(serial.Params[i]) != math.Float64bits(par.Params[i]) {
				t.Fatalf("workers=%d: Params[%d] = %v, serial %v", workers, i, par.Params[i], serial.Params[i])
			}
		}
		if math.Float64bits(serial.ELBO) != math.Float64bits(par.ELBO) {
			t.Errorf("workers=%d: ELBO = %v, serial %v", workers, par.ELBO, serial.ELBO)
		}
		if serial.Iters != par.Iters || serial.FullEvals != par.FullEvals ||
			serial.GradEvals != par.GradEvals || serial.Rejected != par.Rejected {
			t.Errorf("workers=%d: evals (it=%d full=%d grad=%d rejected=%d) differ from serial (it=%d full=%d grad=%d rejected=%d)",
				workers, par.Iters, par.FullEvals, par.GradEvals, par.Rejected,
				serial.Iters, serial.FullEvals, serial.GradEvals, serial.Rejected)
		}
		if serial.Visits != par.Visits {
			t.Errorf("workers=%d: Visits = %d, serial %d", workers, par.Visits, serial.Visits)
		}
		if serial.Converged != par.Converged {
			t.Errorf("workers=%d: Converged = %v, serial %v", workers, par.Converged, serial.Converged)
		}
		if math.Float64bits(serial.FinalRadius) != math.Float64bits(par.FinalRadius) {
			t.Errorf("workers=%d: FinalRadius = %v, serial %v", workers, par.FinalRadius, serial.FinalRadius)
		}
	}

	// Reusing one scratch across worker counts must behave identically to
	// fresh scratches (SetWorkers reconfigures the crew between fits).
	s := NewScratch()
	for _, workers := range []int{4, 1, 2} {
		res := FitWith(pb, init, Options{PatchWorkers: workers}, s)
		if math.Float64bits(serial.ELBO) != math.Float64bits(res.ELBO) {
			t.Errorf("shared scratch, workers=%d: ELBO = %v, serial %v", workers, res.ELBO, serial.ELBO)
		}
	}
}
