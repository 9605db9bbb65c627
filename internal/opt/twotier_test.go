package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/rng"
)

// twoTierObjective is the objective of the two-tier loop: Full returns the
// value, gradient and Hessian in the objective's own buffers, Value the
// value alone.
type twoTierObjective interface {
	Full(x []float64) (float64, []float64, *linalg.Mat)
	Value(x []float64) float64
}

// twoTierFn serves a test function to the two-tier loop; its Value is Full's
// value, bit for bit.
type twoTierFn fullFn

func (o twoTierFn) Full(x []float64) (float64, []float64, *linalg.Mat) { return o(x) }
func (o twoTierFn) Value(x []float64) float64 {
	f, _, _ := o(x)
	return f
}

// newtonTRTwoTier is the reference loop NewtonTRWS replaced: it judges each
// trial by Value and evaluates Full again at every accepted trial. It returns
// the run with the number of Value calls.
func newtonTRTwoTier(obj twoTierObjective, x0 []float64, ws *Workspace, opts TROptions) (Result, int) {
	opts.defaults()
	n := len(x0)
	ws.ensure(n)
	x := ws.x
	copy(x, x0)
	res := Result{X: x}
	valEvals := 0

	radius := opts.InitRadius
	f, g, h := obj.Full(x)
	res.FullEvals++
	res.F = f

	trial := ws.trial
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		gnorm := infNorm(g)
		res.GradNorm = gnorm
		if gnorm < opts.GradTol {
			res.Converged = true
			res.Status = StopGradTol
			return res, valEvals
		}

		p, predicted := solveTRSubproblem(ws, h, g, radius)
		interior := ws.interior
		if opts.DecrementTol > 0 && interior && -predicted < opts.DecrementTol {
			res.Converged = true
			res.Status = StopDecrement
			return res, valEvals
		}
		if predicted >= 0 {
			radius *= 0.25
			if radius < minRadius {
				res.Status = StopCollapsed
				res.Converged = gnorm < 1e-4
				return res, valEvals
			}
			continue
		}
		for i := range trial {
			trial[i] = x[i] + p[i]
		}
		ft := obj.Value(trial)
		valEvals++
		actual := ft - f
		rho := actual / predicted

		if rho > 0.75 && linalg.Norm2(p) > 0.8*radius {
			radius = math.Min(2*radius, opts.MaxRadius)
		} else if !(rho >= 0.25) {
			radius *= 0.25
		}
		if rho > 1e-4 && actual < 0 && !math.IsNaN(ft) {
			copy(x, trial)
			f, g, h = obj.Full(x)
			res.FullEvals++
			ws.noteHessianChanged()
			res.F = f
		}
		if radius < minRadius {
			res.Status = StopCollapsed
			res.Converged = infNorm(g) < 1e-4
			res.GradNorm = infNorm(g)
			return res, valEvals
		}
	}
	res.Status = StopIterLimit
	res.GradNorm = infNorm(g)
	return res, valEvals
}

// oneEvalCase is one objective and start both loops run.
type oneEvalCase struct {
	name string
	full fullFn
	x0   []float64
	opts TROptions
}

func oneEvalCases() []oneEvalCase {
	rosen := func(n int) []float64 {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -1.2
		}
		return x0
	}
	r := rng.New(5)
	quadN := 12
	a := mkSym(r, []float64{1e-2, 0.1, 0.5, 1, 2, 3, 5, 8, 13, 21, 34, 1e3})
	b := make([]float64, quadN)
	for i := range b {
		b[i] = r.Normal()
	}
	quad := func(x []float64) (float64, []float64, *linalg.Mat) {
		g := make([]float64, quadN)
		linalg.SymMulVec(a, g, x)
		f := 0.5*linalg.Dot(x, g) - linalg.Dot(b, x)
		for i := range g {
			g[i] -= b[i]
		}
		return f, g, a.Clone()
	}
	quartic := func(x []float64) (float64, []float64, *linalg.Mat) {
		f := math.Pow(x[0], 4) - x[0]*x[0] + x[1]*x[1]
		g := []float64{4*math.Pow(x[0], 3) - 2*x[0], 2 * x[1]}
		h := linalg.NewMat(2, 2)
		h.Set(0, 0, 12*x[0]*x[0]-2)
		h.Set(1, 1, 2)
		return f, g, h
	}
	return []oneEvalCase{
		{"rosenbrock/2", rosenbrockFull, rosen(2), TROptions{MaxIter: 300}},
		{"rosenbrock/10", rosenbrockFull, rosen(10), TROptions{MaxIter: 300}},
		{"rosenbrock/wide-radius", rosenbrockFull, rosen(5), TROptions{MaxIter: 300, InitRadius: 50, MaxRadius: 1e3}},
		{"rosenbrock/iteration-limit", rosenbrockFull, rosen(28), TROptions{MaxIter: 7}},
		{"quadratic", quad, make([]float64, quadN), TROptions{InitRadius: 0.1}},
		{"indefinite", quartic, []float64{0.05, 1}, TROptions{}},
		{"mixed-scales/gradient-only", mixedFull, mixedStart(), TROptions{}},
		{"mixed-scales/decrement", mixedFull, mixedStart(), TROptions{DecrementTol: 1e-3}},
		{"mixed-scales/boundary", mixedFull, mixedStart(), TROptions{InitRadius: 1e-10, DecrementTol: 1e-3}},
		{"exp-tail/decrement", expTailFull, []float64{2.5, 0}, TROptions{DecrementTol: 1e-3}},
	}
}

// sameRun reports the first field in which two runs differ, bit for bit.
func sameRun(t *testing.T, name string, got, want Result) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d coordinates, want %d", name, len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: X[%d] = %v, want %v", name, i, got.X[i], want.X[i])
		}
	}
	if got.Iters != want.Iters || got.Status != want.Status || got.Converged != want.Converged {
		t.Fatalf("%s: %d iterations, %v (converged %v); want %d, %v (%v)",
			name, got.Iters, got.Status, got.Converged, want.Iters, want.Status, want.Converged)
	}
	for _, v := range [][3]any{
		{"F", got.F, want.F}, {"GradNorm", got.GradNorm, want.GradNorm},
	} {
		if math.Float64bits(v[1].(float64)) != math.Float64bits(v[2].(float64)) {
			t.Fatalf("%s: %s = %v, want %v", name, v[0], v[1], v[2])
		}
	}
}

// TestOneEvaluationMatchesTwoTier: on objectives whose value tier is the
// full tier's value bit for bit, judging trials by Full must retrace the
// two-tier loop exactly — the same X bits, iterations and stop reason, the
// same number of factorizations — at one Full evaluation per trial plus the
// start, with every refused trial counted in Rejected.
func TestOneEvaluationMatchesTwoTier(t *testing.T) {
	sawReject, sawStop := false, map[StopReason]bool{}
	for _, tc := range oneEvalCases() {
		wsRef := NewWorkspace(len(tc.x0))
		ref, valEvals := newtonTRTwoTier(twoTierFn(tc.full), tc.x0, wsRef, tc.opts)
		ws := NewWorkspace(len(tc.x0))
		got := NewtonTRWS(fnObjective(tc.full), tc.x0, ws, tc.opts)
		sameRun(t, tc.name, got, ref)

		accepted := ref.FullEvals - 1
		if got.FullEvals != 1+valEvals {
			t.Errorf("%s: %d Full evaluations, want 1 + %d trials", tc.name, got.FullEvals, valEvals)
		}
		if got.Rejected != valEvals-accepted {
			t.Errorf("%s: %d rejected, want %d trials less %d accepted", tc.name, got.Rejected, valEvals, accepted)
		}
		if ws.factorizations != wsRef.factorizations {
			t.Errorf("%s: %d factorizations, the two-tier loop %d", tc.name, ws.factorizations, wsRef.factorizations)
		}
		sawReject = sawReject || got.Rejected > 0
		sawStop[got.Status] = true
		t.Logf("%s: %d iterations, %d Full (%d rejected), %v", tc.name, got.Iters, got.FullEvals, got.Rejected, got.Status)
	}
	if !sawReject {
		t.Error("no case rejected a trial")
	}
	for _, s := range []StopReason{StopGradTol, StopDecrement, StopCollapsed, StopIterLimit} {
		if !sawStop[s] {
			t.Errorf("no case stopped on %v", s)
		}
	}
}

// recordingObjective serves a test function to NewtonTRWS and records, per
// Full call, whether the optimizer kept the trial: an accepted trial's
// gradient buffer becomes the workspace's iterate gradient.
type recordingObjective struct {
	full     fullFn
	ws       *Workspace
	last     []float64 // gradient buffer of the previous call
	accepted []bool    // per call after the first
	poison   map[int]bool
	calls    int
}

func (o *recordingObjective) settle() {
	if o.last != nil && o.calls > 1 {
		o.accepted = append(o.accepted, &o.ws.g[0] == &o.last[0])
	}
}

func (o *recordingObjective) Full(x, g []float64, h *linalg.Mat) float64 {
	o.settle()
	o.calls++
	o.last = g
	f := fnObjective(o.full).Full(x, g, h)
	if o.poison[o.calls-1] {
		for i := range g {
			g[i] = math.NaN()
		}
		for i := range h.Data {
			h.Data[i] = math.NaN()
		}
	}
	return f
}

// TestRejectedTrialDerivativesUnread: a rejected trial's gradient and
// Hessian are never read. Each case runs once with sane derivatives, which
// marks the trials the ratio test refused, and once with an objective whose
// Full returns a NaN gradient and Hessian at exactly those trials; the two
// runs must agree bit for bit, and no factorization may follow a rejection
// beyond the ones the iterate's own Hessian needs (the count equals the sane
// run's, which the two-tier loop above pins).
func TestRejectedTrialDerivativesUnread(t *testing.T) {
	for _, tc := range oneEvalCases() {
		sane := &recordingObjective{full: tc.full, ws: NewWorkspace(len(tc.x0))}
		want := NewtonTRWS(sane, tc.x0, sane.ws, tc.opts)
		sane.settle()
		wantX := append([]float64(nil), want.X...)
		want.X = wantX

		poison := map[int]bool{}
		for i, ok := range sane.accepted {
			if !ok {
				poison[i+1] = true
			}
		}
		if len(poison) != want.Rejected {
			t.Fatalf("%s: recorded %d rejections, the run reports %d", tc.name, len(poison), want.Rejected)
		}
		bad := &recordingObjective{full: tc.full, ws: NewWorkspace(len(tc.x0)), poison: poison}
		got := NewtonTRWS(bad, tc.x0, bad.ws, tc.opts)
		sameRun(t, tc.name, got, want)
		if got.FullEvals != want.FullEvals || got.Rejected != want.Rejected {
			t.Fatalf("%s: %d Full (%d rejected), want %d (%d)", tc.name, got.FullEvals, got.Rejected, want.FullEvals, want.Rejected)
		}
		if bad.ws.factorizations != sane.ws.factorizations {
			t.Errorf("%s: %d factorizations with poisoned trials, %d without", tc.name, bad.ws.factorizations, sane.ws.factorizations)
		}
		if limit := 2 * (got.FullEvals - got.Rejected); bad.ws.factorizations > limit {
			t.Errorf("%s: %d factorizations for %d accepted points", tc.name, bad.ws.factorizations, got.FullEvals-got.Rejected)
		}
	}
}

// TestStopReasonText: each reason prints today's free-text status.
func TestStopReasonText(t *testing.T) {
	for r, want := range map[StopReason]string{
		0:                 "",
		StopGradTol:       "gradient tolerance reached",
		StopDecrement:     "Newton decrement below tolerance",
		StopCollapsed:     "trust region collapsed",
		StopIterLimit:     "iteration limit",
		StopLineSearch:    "line search failed",
		StopOutsideDomain: "initial position outside the problem's domain",
	} {
		if got := r.String(); got != want {
			t.Errorf("StopReason(%d).String() = %q, want %q", r, got, want)
		}
	}
}
