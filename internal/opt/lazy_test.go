package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/rng"
)

// countingObjective wraps a test function and counts tier usage (fnObjective
// without the counts cannot tell a lazy run from an eager one).
type countingObjective struct {
	full               fullFn
	fulls, grads, vals int
}

func (o *countingObjective) Full(x []float64) (float64, []float64, *linalg.Mat) {
	o.fulls++
	return o.full(x)
}

func (o *countingObjective) Grad(x []float64) (float64, []float64) {
	o.grads++
	f, g, _ := o.full(x)
	return f, g
}

func (o *countingObjective) Value(x []float64) float64 {
	o.vals++
	f, _, _ := o.full(x)
	return f
}

// TestLazyHessianQuadraticMatchesEager: on a strongly convex quadratic the
// Hessian is constant, so the lazy mode must reach the same solution with
// strictly fewer Full evaluations, covering the gap with Grad evaluations.
func TestLazyHessianQuadraticMatchesEager(t *testing.T) {
	r := rng.New(7)
	n := 30
	a := linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Normal() * 0.1
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
		a.Add(i, i, float64(n))
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = r.Normal()
	}
	full := func(x []float64) (float64, []float64, *linalg.Mat) {
		g := make([]float64, n)
		linalg.SymMulVec(a, g, x)
		f := 0.5*linalg.Dot(x, g) - linalg.Dot(b, x)
		for i := range g {
			g[i] -= b[i]
		}
		return f, g, a.Clone()
	}

	eager := &countingObjective{full: full}
	resE := NewtonTRWS(eager, make([]float64, n), NewWorkspace(n), TROptions{})
	lazy := &countingObjective{full: full}
	resL := NewtonTRWS(lazy, make([]float64, n), NewWorkspace(n), TROptions{LazyHessian: true})

	if !resE.Converged || !resL.Converged {
		t.Fatalf("eager converged=%v, lazy converged=%v", resE.Converged, resL.Converged)
	}
	for i := range resE.X {
		if math.Abs(resE.X[i]-resL.X[i]) > 1e-6 {
			t.Fatalf("solutions differ at %d: %v vs %v", i, resE.X[i], resL.X[i])
		}
	}
	if resL.GradEvals == 0 {
		t.Error("lazy run recorded no gradient-tier evaluations")
	}
	if resE.GradEvals != 0 {
		t.Errorf("eager run recorded %d gradient-tier evaluations", resE.GradEvals)
	}
	if lazy.fulls >= eager.fulls {
		t.Errorf("lazy used %d full evaluations, eager %d", lazy.fulls, eager.fulls)
	}
	if lazy.grads != resL.GradEvals || eager.fulls != resE.FullEvals {
		t.Errorf("counter mismatch: obj %d/%d vs result %d/%d",
			lazy.grads, eager.fulls, resL.GradEvals, resE.FullEvals)
	}
}

// TestLazyHessianRosenbrock: the lazy mode must still solve a genuinely
// nonconvex problem to full tolerance, with the SR1-corrected stale model
// and the refresh triggers doing the work.
func TestLazyHessianRosenbrock(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -1.2
		}
		obj := &countingObjective{full: rosenbrockFull}
		res := NewtonTRWS(obj, x0, NewWorkspace(n), TROptions{MaxIter: 500, LazyHessian: true})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge: %s (grad %v)", n, res.Status, res.GradNorm)
		}
		for i, xi := range res.X {
			if math.Abs(xi-1) > 1e-6 {
				t.Errorf("n=%d: x[%d] = %v", n, i, xi)
			}
		}
		if res.GradEvals == 0 {
			t.Errorf("n=%d: no gradient-tier evaluations in a lazy run", n)
		}
	}
}

// TestFuncObjectiveGradTier: a Grad tier that is Full minus the Hessian must
// carry a lazy run on the nonconvex Rosenbrock function to the minimum.
func TestFuncObjectiveGradTier(t *testing.T) {
	x0 := []float64{-1.2, 1}
	res := newtonTR(rosenbrockFull, rosenbrockVal, x0, TROptions{MaxIter: 300, LazyHessian: true})
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Status)
	}
	for i, xi := range res.X {
		if math.Abs(xi-1) > 1e-6 {
			t.Errorf("x[%d] = %v", i, xi)
		}
	}
}

// TestResultRadiusReported: the final trust radius must be surfaced (the
// cross-sweep warm start feeds it back as the next fit's initial radius).
func TestResultRadiusReported(t *testing.T) {
	res := newtonTR(rosenbrockFull, rosenbrockVal, []float64{-1.2, 1}, TROptions{MaxIter: 300})
	if !(res.Radius > 0) {
		t.Errorf("final radius %v, want > 0", res.Radius)
	}
}

// TestSR1UpdateSecant: after an update, the model maps the step onto the
// observed gradient change exactly (the secant equation H·s = y).
func TestSR1UpdateSecant(t *testing.T) {
	r := rng.New(11)
	n := 6
	ws := NewWorkspace(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Normal()
			ws.hmod.Set(i, j, v)
			ws.hmod.Set(j, i, v)
		}
		ws.hmod.Add(i, i, 10)
	}
	// A well-scaled secant pair: the observed curvature differs from the
	// model by a moderate rank-1 piece along s (oversized or near-orthogonal
	// corrections are deliberately rejected; see the safeguards).
	s := make([]float64, n)
	for i := range s {
		s[i] = r.Normal()
	}
	y := make([]float64, n)
	linalg.SymMulVec(ws.hmod, y, s)
	for i := range y {
		y[i] += 0.5 * s[i]
	}
	if !ws.sr1Update(s, y) {
		t.Fatal("significant update was skipped")
	}
	hs := make([]float64, n)
	linalg.SymMulVec(ws.hmod, hs, s)
	for i := range hs {
		if math.Abs(hs[i]-y[i]) > 1e-8*(1+math.Abs(y[i])) {
			t.Fatalf("secant violated at %d: H·s = %v, y = %v", i, hs[i], y[i])
		}
	}

	// An update the model already explains must be skipped (it would only
	// invalidate the cached factorization).
	if ws.sr1Update(s, y) {
		t.Error("already-satisfied secant pair was not skipped")
	}
}

// TestLBFGSAllocationIndependentOfIterations pins the gradient-history fix:
// the history ring and gradient buffers are allocated once up front, so a
// long run must not allocate more than a short one (the history used to be
// a fresh s/y pair per iteration).
func TestLBFGSAllocationIndependentOfIterations(t *testing.T) {
	fg := func(x []float64) (float64, []float64) {
		f, g, _ := rosenbrockFull(x)
		return f, g
	}
	run := func(maxIter int) float64 {
		return testing.AllocsPerRun(10, func() {
			LBFGS(fg, []float64{-1.2, 1}, LBFGSOptions{MaxIter: maxIter, GradTol: 1e-300})
		})
	}
	short, long := run(5), run(500)
	// rosenbrockFull allocates per call, so subtract the per-eval allocations
	// by comparing against the evaluation counts instead of demanding
	// equality: the optimizer's own overhead must stay constant.
	resShort := LBFGS(fg, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 5, GradTol: 1e-300})
	resLong := LBFGS(fg, []float64{-1.2, 1}, LBFGSOptions{MaxIter: 500, GradTol: 1e-300})
	perEvalShort := short - 3*float64(resShort.FullEvals)
	perEvalLong := long - 3*float64(resLong.FullEvals)
	if perEvalLong > perEvalShort+2 {
		t.Errorf("optimizer overhead grew with iterations: %d iters -> %.0f allocs beyond evals, %d iters -> %.0f",
			resShort.Iters, perEvalShort, resLong.Iters, perEvalLong)
	}
}

// mkSym builds a symmetric matrix with the given eigenvalues in a random
// orthogonal basis (Householder of a random vector).
func mkSym(r *rng.Source, eig []float64) *linalg.Mat {
	n := len(eig)
	v := make([]float64, n)
	var vn float64
	for i := range v {
		v[i] = r.Normal()
		vn += v[i] * v[i]
	}
	vn = math.Sqrt(vn)
	for i := range v {
		v[i] /= vn
	}
	// Q = I - 2vvᵀ; H = Q diag Qᵀ.
	q := linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := -2 * v[i] * v[j]
			if i == j {
				d++
			}
			q.Set(i, j, d)
		}
	}
	h := linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += q.At(i, k) * eig[k] * q.At(j, k)
			}
			h.Set(i, j, s)
		}
	}
	return h
}

// TestTRSubproblemSpectrumFloor covers the numerically-PSD branch: a Hessian
// whose smallest eigenvalues are floating-point noise relative to the
// largest must yield an interior Newton step in the resolvable subspace plus
// a bounded fill, not a boundary ride — and the step must still be a
// descent step inside the radius.
func TestTRSubproblemSpectrumFloor(t *testing.T) {
	r := rng.New(21)
	n := 8
	eig := []float64{-1e-6, 0, 1e-7, 1e10, 2e10, 3e10, 4e10, 5e10} // noise-negative lmin
	h := mkSym(r, eig)
	g := make([]float64, n)
	for i := range g {
		g[i] = r.Normal() * 1e3
	}
	for _, radius := range []float64{1e-3, 1, 100} {
		ws := NewWorkspace(n)
		p, pred := solveTRSubproblem(ws, h, g, radius)
		if linalg.Norm2(p) > radius*(1+1e-6) {
			t.Fatalf("radius %g: step length %g exceeds radius", radius, linalg.Norm2(p))
		}
		if pred >= 0 {
			t.Fatalf("radius %g: predicted %g is not a descent", radius, pred)
		}
	}
}

// TestTRSubproblemZeroHessian covers the zero-spectrum fallback: with a zero
// Hessian the model is linear and the step is steepest descent to the
// boundary.
func TestTRSubproblemZeroHessian(t *testing.T) {
	n := 5
	h := linalg.NewMat(n, n)
	g := []float64{1, -2, 3, 0.5, -1}
	p, pred := solveTRSubproblem(NewWorkspace(n), h, g, 2.0)
	if math.Abs(linalg.Norm2(p)-2.0) > 1e-9 {
		t.Errorf("step length %g, want the boundary 2.0", linalg.Norm2(p))
	}
	if pred >= 0 {
		t.Errorf("predicted %g, want descent", pred)
	}
	gn := linalg.Norm2(g)
	for i := range p {
		if math.Abs(p[i]+g[i]/gn*2.0) > 1e-9 {
			t.Fatalf("p[%d] = %g is not steepest descent", i, p[i])
		}
	}
}

// TestTRSubproblemHardCase covers the Moré–Sorensen hard case: a genuinely
// indefinite Hessian whose gradient has no component along the most negative
// eigenvector still yields a boundary step with negative-curvature content.
func TestTRSubproblemHardCase(t *testing.T) {
	n := 4
	h := linalg.NewMat(n, n)
	diag := []float64{-2, 1, 2, 3}
	for i := 0; i < n; i++ {
		h.Set(i, i, diag[i])
	}
	g := []float64{0, 0.1, 0.1, 0.1} // no component along the negative direction
	radius := 10.0
	p, pred := solveTRSubproblem(NewWorkspace(n), h, g, radius)
	if math.Abs(linalg.Norm2(p)-radius) > 1e-6*radius {
		t.Errorf("hard-case step length %g, want the boundary %g", linalg.Norm2(p), radius)
	}
	if pred >= 0 {
		t.Errorf("predicted %g, want descent", pred)
	}
	if math.Abs(p[0]) < 1 {
		t.Errorf("hard-case step has no negative-curvature component: p[0] = %g", p[0])
	}
}

// TestTRSubproblemFactorizationCache: repeated solves against one Hessian
// must reuse the factorization and produce identical steps; invalidating it
// must be safe.
func TestTRSubproblemFactorizationCache(t *testing.T) {
	r := rng.New(31)
	n := 6
	eig := []float64{-3, -1, 2, 5, 9, 14}
	h := mkSym(r, eig)
	g := make([]float64, n)
	for i := range g {
		g[i] = r.Normal()
	}
	ws := NewWorkspace(n)
	p1, pred1 := solveTRSubproblem(ws, h, g, 0.7)
	p1c := append([]float64(nil), p1...)
	p2, pred2 := solveTRSubproblem(ws, h, g, 0.7)
	for i := range p2 {
		if p2[i] != p1c[i] {
			t.Fatalf("cached re-solve differs at %d: %g vs %g", i, p2[i], p1c[i])
		}
	}
	if pred1 != pred2 {
		t.Fatalf("cached re-solve predicted %g vs %g", pred2, pred1)
	}
	ws.noteHessianChanged()
	p3, _ := solveTRSubproblem(ws, h, g, 0.7)
	for i := range p3 {
		if math.Abs(p3[i]-p1c[i]) > 1e-12*(1+math.Abs(p1c[i])) {
			t.Fatalf("refactored solve differs at %d: %g vs %g", i, p3[i], p1c[i])
		}
	}
}

// TestTRSubproblemApprox covers the Levenberg fast path: positive definite
// models factor with zero shift and return the clipped Newton step;
// indefinite models find a positive shift; the cached factor is reused.
func TestTRSubproblemApprox(t *testing.T) {
	r := rng.New(41)
	n := 6

	// Positive definite.
	pd := mkSym(r, []float64{1, 2, 3, 4, 5, 6})
	g := make([]float64, n)
	for i := range g {
		g[i] = r.Normal()
	}
	ws := NewWorkspace(n)
	p, pred, ok := solveTRSubproblemApprox(ws, pd, g, 100)
	if !ok {
		t.Fatal("approx path failed on a PD model")
	}
	if pred >= 0 {
		t.Fatalf("predicted %g, want descent", pred)
	}
	if ws.approxSigma != 0 {
		t.Errorf("PD model needed shift %g, want 0", ws.approxSigma)
	}
	// The unclipped step solves H p = -g.
	hp := make([]float64, n)
	linalg.SymMulVec(pd, hp, p)
	for i := range hp {
		if math.Abs(hp[i]+g[i]) > 1e-8*(1+math.Abs(g[i])) {
			t.Fatalf("Newton residual at %d: %g", i, hp[i]+g[i])
		}
	}
	// Cached factor: same answer.
	p2, _, ok2 := solveTRSubproblemApprox(ws, pd, g, 100)
	if !ok2 {
		t.Fatal("cached approx solve failed")
	}
	for i := range p2 {
		if p2[i] != p[i] {
			t.Fatalf("cached approx solve differs at %d", i)
		}
	}

	// Indefinite: needs a positive shift, clips to the radius.
	ind := mkSym(r, []float64{-5, -1, 2, 3, 4, 6})
	ws2 := NewWorkspace(n)
	p3, pred3, ok3 := solveTRSubproblemApprox(ws2, ind, g, 0.5)
	if !ok3 {
		t.Fatal("approx path failed on an indefinite model")
	}
	if ws2.approxSigma <= 0 {
		t.Errorf("indefinite model factored with shift %g, want > 0", ws2.approxSigma)
	}
	if linalg.Norm2(p3) > 0.5*(1+1e-9) {
		t.Errorf("approx step length %g exceeds radius", linalg.Norm2(p3))
	}
	_ = pred3
}

// TestLazyHessianScaledTrustRegion covers the elliptical stale-step
// geometry: with a Scale, lazy iterations solve in scaled variables and the
// run must still reach the optimum of a badly scaled quadratic, while eager
// runs ignore the Scale entirely.
func TestLazyHessianScaledTrustRegion(t *testing.T) {
	n := 6
	// Badly scaled convex quadratic: coordinate 0 lives on a ~1e-4 scale
	// with huge curvature (a position-like coordinate).
	diag := []float64{1e8, 1, 2, 3, 4, 5}
	full := func(x []float64) (float64, []float64, *linalg.Mat) {
		f := 0.0
		g := make([]float64, n)
		h := linalg.NewMat(n, n)
		for i := range x {
			d := x[i] - 1e-3
			f += 0.5 * diag[i] * d * d
			g[i] = diag[i] * d
			h.Set(i, i, diag[i])
		}
		return f, g, h
	}
	scale := []float64{1e4, 1, 1, 1, 1, 1}
	obj := &countingObjective{full: full}
	x0 := make([]float64, n)
	res := NewtonTRWS(obj, x0, NewWorkspace(n), TROptions{
		MaxIter: 200, LazyHessian: true, Scale: scale, GradTol: 1e-6,
	})
	if !res.Converged {
		t.Fatalf("scaled lazy run did not converge: %s (grad %g)", res.Status, res.GradNorm)
	}
	for i, xi := range res.X {
		if math.Abs(xi-1e-3) > 1e-6 {
			t.Errorf("x[%d] = %g, want 1e-3", i, xi)
		}
	}
	if res.GradEvals == 0 {
		t.Error("no gradient-tier evaluations in a scaled lazy run")
	}

	// A mismatched Scale length must be rejected loudly.
	defer func() {
		if recover() == nil {
			t.Error("short Scale did not panic")
		}
	}()
	NewtonTRWS(obj, x0, NewWorkspace(n), TROptions{LazyHessian: true, Scale: scale[:2]})
}
