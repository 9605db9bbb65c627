package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
)

// adjustingObjective is a recordingObjective that also implements
// TrialAdjuster through move, and records per trial whether it moved it.
type adjustingObjective struct {
	*recordingObjective
	move     func(x, trial []float64) bool
	adjusted []bool // per Full call after the first
	pending  bool   // the next Full call evaluates a moved trial
	misfed   int    // AdjustTrial calls whose g was not the iterate's
}

func (o *adjustingObjective) AdjustTrial(x, g, trial []float64) bool {
	if &g[0] != &o.ws.g[0] || &x[0] != &o.ws.x[0] {
		o.misfed++
	}
	o.pending = o.move(x, trial)
	return o.pending
}

func (o *adjustingObjective) Full(x, g []float64, h *linalg.Mat) float64 {
	if o.calls > 0 {
		o.adjusted = append(o.adjusted, o.pending)
	}
	o.pending = false
	return o.recordingObjective.Full(x, g, h)
}

// TestDecliningAdjusterMatchesPlain: an objective whose AdjustTrial never
// moves a trial runs exactly as one without the method — the same X bits,
// iterations, stop reason and factorizations — and is asked only about
// interior steps, with the iterate's own x and g.
func TestDecliningAdjusterMatchesPlain(t *testing.T) {
	if _, ok := any(fnObjective(nil)).(TrialAdjuster); ok {
		t.Fatal("the plain test objective implements TrialAdjuster; the two-tier comparison lost its point")
	}
	for _, tc := range oneEvalCases() {
		ws := NewWorkspace(len(tc.x0))
		want := NewtonTRWS(fnObjective(tc.full), tc.x0, ws, tc.opts)
		want.X = append([]float64(nil), want.X...)

		asked := 0
		obj := &adjustingObjective{recordingObjective: &recordingObjective{full: tc.full}}
		obj.ws = NewWorkspace(len(tc.x0))
		obj.move = func(x, trial []float64) bool {
			asked++
			if !obj.ws.interior {
				t.Errorf("%s: AdjustTrial called on a boundary step", tc.name)
			}
			return false
		}
		got := NewtonTRWS(obj, tc.x0, obj.ws, tc.opts)
		sameRun(t, tc.name, got, want)
		if obj.ws.factorizations != ws.factorizations {
			t.Errorf("%s: %d factorizations, %d without the method", tc.name, obj.ws.factorizations, ws.factorizations)
		}
		if obj.misfed > 0 {
			t.Errorf("%s: %d AdjustTrial calls did not see the iterate's x and g", tc.name, obj.misfed)
		}
		t.Logf("%s: asked %d times in %d trials", tc.name, asked, got.FullEvals-1)
	}
}

// expTailFull is e^{x₀} + (x₁ − 1)², whose infimum 0 lies at x₀ → −∞: along
// x₀ every Newton step is exactly −1, each gain beats the model's prediction
// (ρ = 2(1 − 1/e) ≈ 1.26), the decrements shrink by 1/e per step, and the
// predicted decrease ½λ² = e^{x₀}/2 is only half the gap that remains — the
// shape of a saturating logit.
func expTailFull(x []float64) (float64, []float64, *linalg.Mat) {
	e, d := math.Exp(x[0]), x[1]-1
	h := linalg.NewMat(2, 2)
	h.Set(0, 0, e)
	h.Set(1, 1, 2)
	return e + d*d, []float64{e, 2 * d}, h
}

// TestAdjustedTrialEndsExpTail: on the exponential tail e^{x₀} + (x₁ − 1)²,
// an adjuster that jumps x₀ to where the gain left is DecrementTol/100
// (vi's type tail in one coordinate) is accepted and ends the run in fewer
// iterations, within the tolerance of the infimum. It moves only once e^{x₀}
// ≤ 0.1, as vi moves only a decided type.
func TestAdjustedTrialEndsExpTail(t *testing.T) {
	const tol = 1e-3
	opts := TROptions{DecrementTol: tol}
	x0 := []float64{2.5, 0}
	plain := newtonTR(expTailFull, x0, opts)

	obj := &adjustingObjective{recordingObjective: &recordingObjective{full: expTailFull}}
	obj.ws = NewWorkspace(2)
	end := math.Log(tol / 100)
	obj.move = func(x, trial []float64) bool {
		if trial[0] < x[0] && math.Exp(x[0]) <= 0.1 && end < trial[0] {
			trial[0] = end
			return true
		}
		return false
	}
	got := NewtonTRWS(obj, x0, obj.ws, opts)
	obj.settle()
	moved := 0
	for i, m := range obj.adjusted {
		if m {
			moved++
			if !obj.accepted[i] {
				t.Errorf("trial %d: the moved trial was rejected", i)
			}
		}
	}
	t.Logf("plain: %d iterations, %.3g above the infimum; adjusted: %d iterations (%d moved), %.3g",
		plain.Iters, plain.F, got.Iters, moved, got.F)
	if moved == 0 {
		t.Fatal("no trial moved")
	}
	if got.Status != StopDecrement || !(got.F <= tol) {
		t.Errorf("stopped with %q %.3g above the infimum, want the decrement stop within %g", got.Status, got.F, tol)
	}
	if got.Iters >= plain.Iters {
		t.Errorf("%d iterations with the jump, %d without", got.Iters, plain.Iters)
	}
}

// TestRejectedAdjustedTrialUnread: an adjuster that throws every trial it
// is offered uphill gets each one rejected. Such a trial's gradient and
// Hessian are never read — a run that poisons them with NaN agrees bit for
// bit with a sane one, at the same factorization count — and after a
// rejected moved trial the next trial from the same iterate goes unmoved.
func TestRejectedAdjustedTrialUnread(t *testing.T) {
	uphill := func(x, trial []float64) bool {
		trial[0] += 3
		return true
	}
	for _, tc := range []oneEvalCase{
		{"exp-tail", expTailFull, []float64{2.5, 0}, TROptions{DecrementTol: 1e-3}},
		{"rosenbrock/2", rosenbrockFull, []float64{-1.2, -1.2}, TROptions{MaxIter: 300}},
	} {
		sane := &adjustingObjective{recordingObjective: &recordingObjective{full: tc.full}, move: uphill}
		sane.ws = NewWorkspace(len(tc.x0))
		want := NewtonTRWS(sane, tc.x0, sane.ws, tc.opts)
		sane.settle()
		want.X = append([]float64(nil), want.X...)

		poison := map[int]bool{}
		movedRejected := 0
		for i, ok := range sane.accepted {
			if ok {
				continue
			}
			poison[i+1] = true
			if sane.adjusted[i] {
				movedRejected++
				if i+1 < len(sane.adjusted) && sane.adjusted[i+1] {
					t.Errorf("%s: trial %d moved again after the moved trial %d was rejected", tc.name, i+1, i)
				}
			}
		}
		if movedRejected == 0 {
			t.Fatalf("%s: no moved trial was rejected; the fixture lost its point", tc.name)
		}
		bad := &adjustingObjective{recordingObjective: &recordingObjective{full: tc.full, poison: poison}, move: uphill}
		bad.ws = NewWorkspace(len(tc.x0))
		got := NewtonTRWS(bad, tc.x0, bad.ws, tc.opts)
		sameRun(t, tc.name, got, want)
		if got.FullEvals != want.FullEvals || got.Rejected != want.Rejected {
			t.Fatalf("%s: %d Full (%d rejected), want %d (%d)", tc.name, got.FullEvals, got.Rejected, want.FullEvals, want.Rejected)
		}
		if bad.ws.factorizations != sane.ws.factorizations {
			t.Errorf("%s: %d factorizations with poisoned trials, %d without", tc.name, bad.ws.factorizations, sane.ws.factorizations)
		}
		t.Logf("%s: %d moved trials rejected, %v after %d iterations", tc.name, movedRejected, got.Status, got.Iters)
	}
}
