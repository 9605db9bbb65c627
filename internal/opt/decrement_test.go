package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
)

// Celeste-like mixed units: x[0] is a position in degrees whose likelihood
// term, K·log cosh((x₀ − posAt)/posPx − posOff), is ~1 pixel (posPx degrees)
// wide with curvature K/posPx² = 1e11 deg⁻² at its optimum, and x[1] is an
// O(1) parameter under the non-quadratic e^y − 2y (minimum at ln 2). The
// position optimum posAt + posOff·posPx is not a float64, so its gradient
// cannot drop below K/posPx times the position's rounding, ~1e-8: the
// infinity norm of the gradient mixes that with an O(1) coordinate whose
// resolution is ~1e-16.
const (
	posK   = 1e3
	posPx  = 1e-4
	posAt  = 1e-2
	posOff = 1.0 / 3
)

func mixedFull(x []float64) (float64, []float64, *linalg.Mat) {
	u := (x[0]-posAt)/posPx - posOff
	ey := math.Exp(x[1])
	f := posK*math.Log(math.Cosh(u)) + ey - 2*x[1]
	g := []float64{posK / posPx * math.Tanh(u), ey - 2}
	h := linalg.NewMat(2, 2)
	sech := 1 / math.Cosh(u)
	h.Set(0, 0, posK/(posPx*posPx)*sech*sech)
	h.Set(1, 1, ey)
	return f, g, h
}

// mixedStart is half a pixel off in position and far off in the O(1) term.
func mixedStart() []float64 { return []float64{posAt + (posOff+0.5)*posPx, 2.5} }

// TestDecrementStopsMixedScales: the gradient-only rule cannot converge this
// objective (the position's gradient floor sits above GradTol, so it ends by
// collapsing the radius), while the decrement stops it — with the gradient
// norm still above GradTol, within the tolerance of the optimum's value, and
// on fewer evaluations.
func TestDecrementStopsMixedScales(t *testing.T) {
	gradOnly := newtonTR(mixedFull, mixedStart(), TROptions{})
	if gradOnly.Status == StopGradTol {
		t.Fatalf("the gradient-only run reached GradTol (norm %g); the fixture lost its point", gradOnly.GradNorm)
	}
	best := gradOnly.F
	for _, tol := range []float64{1e-3, 1e-12} {
		res := newtonTR(mixedFull, mixedStart(), TROptions{DecrementTol: tol})
		if res.Status != StopDecrement || !res.Converged {
			t.Errorf("tol=%g: stopped with %q (converged %v), want the decrement stop", tol, res.Status, res.Converged)
		}
		if !(res.GradNorm > 1e-8) {
			t.Errorf("tol=%g: gradient norm %g at the stop; the gradient test would have stopped it", tol, res.GradNorm)
		}
		if gap := res.F - best; !(gap <= tol) {
			t.Errorf("tol=%g: stopped %g above the optimum's value", tol, gap)
		}
		if res.FullEvals >= gradOnly.FullEvals {
			t.Errorf("tol=%g: %d evaluations, the gradient-only run %d",
				tol, res.FullEvals, gradOnly.FullEvals)
		}
	}
}

// TestDecrementIgnoresBoundaryStep: from far off (over 100 nats to gain) with
// a tiny initial radius, the first steps are clipped to the boundary and
// predict far less than the tolerance. A clipped step says nothing about the
// distance to the optimum, so the run must walk the radius out and stop near
// the optimum, not where it started.
func TestDecrementIgnoresBoundaryStep(t *testing.T) {
	f0, _, _ := mixedFull(mixedStart())
	res := newtonTR(mixedFull, mixedStart(), TROptions{InitRadius: 1e-10, DecrementTol: 1e-3})
	if res.Status != StopDecrement {
		t.Fatalf("stopped with %q, want the decrement stop", res.Status)
	}
	if accepted := res.FullEvals - 1 - res.Rejected; accepted < 1 {
		t.Errorf("%d accepted steps: the run stopped on its first, clipped step", accepted)
	}
	best := newtonTR(mixedFull, mixedStart(), TROptions{}).F
	if gap := res.F - best; !(gap <= 1e-3) {
		t.Errorf("stopped %g above the optimum's value (start was %g above)", gap, f0-best)
	}
}
