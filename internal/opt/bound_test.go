package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/rng"
)

// boundFn is a StepBounder made of a function.
type boundFn func(x, p []float64) bool

func (b boundFn) BoundStep(x, p []float64) bool { return b(x, p) }

// boundingObjective is a recordingObjective that also implements
// StepBounder through bound and TrialAdjuster through a recorder that moves
// nothing.
type boundingObjective struct {
	*recordingObjective
	bound    boundFn
	bounded  int  // BoundStep calls that shortened the step
	last     bool // the last BoundStep call shortened the step
	misfed   int  // BoundStep calls whose x or p was not the workspace's
	adjusted int  // AdjustTrial calls after a shortened step
	asked    int  // AdjustTrial calls
}

func (o *boundingObjective) BoundStep(x, p []float64) bool {
	if &x[0] != &o.ws.x[0] || &p[0] != &o.ws.p[0] {
		o.misfed++
	}
	o.last = o.bound(x, p)
	if o.last {
		o.bounded++
	}
	return o.last
}

func (o *boundingObjective) AdjustTrial(x, g, trial []float64) bool {
	o.asked++
	if o.last {
		o.adjusted++
	}
	return false
}

func newBoundingObjective(full fullFn, n int, bound boundFn) *boundingObjective {
	o := &boundingObjective{recordingObjective: &recordingObjective{full: full}, bound: bound}
	o.ws = NewWorkspace(n)
	return o
}

// clipCoord returns a bound that shortens a step whose coordinate i moves
// more than maxLen, scaling the whole step.
func clipCoord(i int, maxLen float64) boundFn {
	return func(x, p []float64) bool {
		a := math.Abs(p[i])
		if !(a > maxLen) {
			return false
		}
		k := maxLen / a
		for j := range p {
			p[j] *= k
		}
		return true
	}
}

// TestNonShorteningBounderMatchesPlain: an objective whose BoundStep never
// shortens a step runs exactly as one without the method — the same X bits,
// iterations, stop reason and factorizations — and is handed the
// workspace's own iterate and step.
func TestNonShorteningBounderMatchesPlain(t *testing.T) {
	if _, ok := any(fnObjective(nil)).(StepBounder); ok {
		t.Fatal("the plain test objective implements StepBounder; the comparison lost its point")
	}
	for _, tc := range oneEvalCases() {
		ws := NewWorkspace(len(tc.x0))
		want := NewtonTRWS(fnObjective(tc.full), tc.x0, ws, tc.opts)
		want.X = append([]float64(nil), want.X...)

		calls := 0
		obj := newBoundingObjective(tc.full, len(tc.x0), func(x, p []float64) bool {
			calls++
			return false
		})
		got := NewtonTRWS(obj, tc.x0, obj.ws, tc.opts)
		sameRun(t, tc.name, got, want)
		if obj.ws.factorizations != ws.factorizations {
			t.Errorf("%s: %d factorizations, %d without the method", tc.name, obj.ws.factorizations, ws.factorizations)
		}
		if obj.misfed > 0 {
			t.Errorf("%s: %d BoundStep calls did not see the workspace's iterate and step", tc.name, obj.misfed)
		}
		if calls < got.Iters-1 {
			t.Errorf("%s: BoundStep called %d times in %d iterations", tc.name, calls, got.Iters)
		}
	}
}

// TestBoundedStepPrediction: a shortened step's predicted change is the
// quadratic model's at the shortened step, bit for bit, and the step is not
// interior; an unshortened step keeps the subproblem's prediction. The
// Hessians are positive definite and indefinite, the radii interior and
// clipping.
func TestBoundedStepPrediction(t *testing.T) {
	r := rng.New(11)
	const n = 6
	for _, spec := range []struct {
		name string
		eigs []float64
	}{
		{"definite", []float64{1e-2, 0.5, 1, 3, 8, 1e3}},
		{"indefinite", []float64{-2, -0.1, 0.5, 1, 4, 30}},
	} {
		for _, radius := range []float64{1e3, 0.3} {
			ws := NewWorkspace(n)
			copy(ws.h.Data, mkSym(r, spec.eigs).Data)
			for i := range ws.g {
				ws.g[i] = r.Normal()
			}
			plainP, plainPred := solveTRSubproblem(ws, ws.h, ws.g, radius)
			plainP = append([]float64(nil), plainP...)
			plainInterior := ws.interior

			// Unshortened: the same step, prediction and interior flag.
			p, pred := boundedStep(ws, clipCoord(0, math.Inf(1)), radius)
			if math.Float64bits(pred) != math.Float64bits(plainPred) || ws.interior != plainInterior {
				t.Errorf("%s r=%g: unshortened step predicts %v (interior %v), the subproblem %v (%v)",
					spec.name, radius, pred, ws.interior, plainPred, plainInterior)
			}
			for i := range p {
				if math.Float64bits(p[i]) != math.Float64bits(plainP[i]) {
					t.Fatalf("%s r=%g: unshortened p[%d] = %v, want %v", spec.name, radius, i, p[i], plainP[i])
				}
			}

			// Shortened to half its first coordinate.
			p, pred = boundedStep(ws, clipCoord(0, math.Abs(plainP[0])/2), radius)
			if want := modelChange(ws.h, ws.g, p); math.Float64bits(pred) != math.Float64bits(want) {
				t.Errorf("%s r=%g: shortened step predicts %v, the model at it %v", spec.name, radius, pred, want)
			}
			if ws.interior {
				t.Errorf("%s r=%g: a shortened step counts as interior", spec.name, radius)
			}
			if !(pred < 0) || pred == plainPred {
				t.Errorf("%s r=%g: shortened prediction %v against the full step's %v", spec.name, radius, pred, plainPred)
			}
			t.Logf("%s r=%g: interior %v, predicted %.4g, shortened %.4g", spec.name, radius, plainInterior, plainPred, pred)
		}
	}
}

// TestBoundedStepNeverStopsOrAdjusts: a shortened step neither ends a run on
// the decrement test nor reaches AdjustTrial. A bounder that halves every
// step keeps every step non-interior, so a decrement tolerance no step can
// pass under never fires; one that caps the position of the mixed-scales
// objective at an eighth of its pixel shortens the first steps, and the run
// still ends on the decrement stop within the tolerance of the optimum.
func TestBoundedStepNeverStopsOrAdjusts(t *testing.T) {
	halve := func(x, p []float64) bool {
		for i := range p {
			p[i] /= 2
		}
		return true
	}
	for _, tc := range []oneEvalCase{
		{"exp-tail", expTailFull, []float64{2.5, 0}, TROptions{DecrementTol: 1e300, MaxIter: 40}},
		{"mixed-scales", mixedFull, mixedStart(), TROptions{DecrementTol: 1e300, MaxIter: 40}},
		{"quartic", func(x []float64) (float64, []float64, *linalg.Mat) {
			h := linalg.NewMat(1, 1)
			h.Set(0, 0, 12*x[0]*x[0])
			return math.Pow(x[0], 4), []float64{4 * math.Pow(x[0], 3)}, h
		}, []float64{1}, TROptions{DecrementTol: 1e300, MaxIter: 40}},
	} {
		obj := newBoundingObjective(tc.full, len(tc.x0), halve)
		got := NewtonTRWS(obj, tc.x0, obj.ws, tc.opts)
		if got.Status == StopDecrement {
			t.Errorf("%s: a run whose every step was shortened stopped on the decrement", tc.name)
		}
		if obj.asked > 0 {
			t.Errorf("%s: AdjustTrial called %d times on shortened steps", tc.name, obj.asked)
		}
		t.Logf("%s: %v after %d iterations, %d steps shortened", tc.name, got.Status, got.Iters, obj.bounded)
	}

	const tol = 1e-3
	best := newtonTR(mixedFull, mixedStart(), TROptions{DecrementTol: 1e-12})
	obj := newBoundingObjective(mixedFull, 2, clipCoord(0, posPx/8))
	got := NewtonTRWS(obj, mixedStart(), obj.ws, TROptions{DecrementTol: tol})
	if obj.bounded == 0 {
		t.Fatal("no step was shortened; the fixture lost its point")
	}
	if obj.adjusted > 0 {
		t.Errorf("AdjustTrial called %d times on a shortened step", obj.adjusted)
	}
	if got.Status != StopDecrement || obj.last {
		t.Errorf("stopped with %q after a shortened step %v, want the decrement stop after an unshortened one", got.Status, obj.last)
	}
	if gap := got.F - best.F; !(gap <= tol) {
		t.Errorf("stopped %g above the optimum's value", gap)
	}
	t.Logf("capped: %d iterations, %d steps shortened, %d offered to AdjustTrial", got.Iters, obj.bounded, obj.asked)
}
