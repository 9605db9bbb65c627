package opt

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/rng"
)

// fullFn is the shape the analytic test objectives are written in: value,
// gradient and Hessian from one call.
type fullFn func(x []float64) (float64, []float64, *linalg.Mat)

// fnObjective adapts a test function to Objective, copying its gradient and
// Hessian into the workspace's buffers.
type fnObjective fullFn

func (o fnObjective) Full(x, g []float64, h *linalg.Mat) float64 {
	f, fg, fh := o(x)
	copy(g, fg)
	copy(h.Data, fh.Data)
	return f
}

// newtonTR runs NewtonTRWS on a test function in a fresh workspace.
func newtonTR(full fullFn, x0 []float64, opts TROptions) Result {
	return NewtonTRWS(fnObjective(full), x0, NewWorkspace(len(x0)), opts)
}

// rosenbrock is the classic nonconvex banana function with minimum at
// (1, ..., 1).
func rosenbrockFull(x []float64) (float64, []float64, *linalg.Mat) {
	n := len(x)
	f := 0.0
	g := make([]float64, n)
	h := linalg.NewMat(n, n)
	for i := 0; i < n-1; i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		f += 100*a*a + b*b
		g[i] += -400*x[i]*a - 2*b
		g[i+1] += 200 * a
		h.Add(i, i, -400*a+800*x[i]*x[i]+2)
		h.Add(i, i+1, -400*x[i])
		h.Add(i+1, i, -400*x[i])
		h.Add(i+1, i+1, 200)
	}
	return f, g, h
}

func TestNewtonTRRosenbrock(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -1.2
		}
		res := newtonTR(rosenbrockFull, x0, TROptions{MaxIter: 300})
		if !res.Converged {
			t.Fatalf("n=%d: did not converge: %s (grad %v)", n, res.Status, res.GradNorm)
		}
		for i, xi := range res.X {
			if math.Abs(xi-1) > 1e-6 {
				t.Errorf("n=%d: x[%d] = %v", n, i, xi)
			}
		}
	}
}

func TestNewtonTRQuadratic(t *testing.T) {
	// Strongly convex quadratic: must converge in very few iterations.
	r := rng.New(3)
	n := 44
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
	res := newtonTR(full, make([]float64, n), TROptions{})
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Status)
	}
	if res.Iters > 12 {
		t.Errorf("quadratic took %d iterations", res.Iters)
	}
	// Verify A x = b.
	ax := make([]float64, n)
	linalg.SymMulVec(a, ax, res.X)
	for i := range ax {
		if math.Abs(ax[i]-b[i]) > 1e-6 {
			t.Fatalf("Ax != b at %d: %v vs %v", i, ax[i], b[i])
		}
	}
}

func TestNewtonTRIndefiniteStart(t *testing.T) {
	// f = x^4 - x^2 + y^2 has an indefinite Hessian at the origin-adjacent
	// start; the trust region must still find a minimum (x = ±1/√2, y = 0).
	full := func(x []float64) (float64, []float64, *linalg.Mat) {
		f := math.Pow(x[0], 4) - x[0]*x[0] + x[1]*x[1]
		g := []float64{4*math.Pow(x[0], 3) - 2*x[0], 2 * x[1]}
		h := linalg.NewMat(2, 2)
		h.Set(0, 0, 12*x[0]*x[0]-2)
		h.Set(1, 1, 2)
		return f, g, h
	}
	res := newtonTR(full, []float64{0.05, 1}, TROptions{})
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Status)
	}
	if math.Abs(math.Abs(res.X[0])-1/math.Sqrt2) > 1e-6 || math.Abs(res.X[1]) > 1e-6 {
		t.Errorf("converged to %v", res.X)
	}
	if res.F > -0.24 {
		t.Errorf("f = %v, want ≈ -0.25", res.F)
	}
}

func TestTRSubproblemRespectsRadius(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(8)
		h := linalg.NewMat(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := r.Normal()
				h.Set(i, j, v)
				h.Set(j, i, v)
			}
		}
		g := make([]float64, n)
		for i := range g {
			g[i] = r.Normal()
		}
		radius := 0.1 + r.Float64()
		p, pred := solveTRSubproblem(NewWorkspace(n), h, g, radius)
		if linalg.Norm2(p) > radius*(1+1e-6) {
			t.Fatalf("step length %v exceeds radius %v", linalg.Norm2(p), radius)
		}
		if pred > 1e-12 {
			t.Fatalf("predicted increase %v", pred)
		}
		// The step must be at least as good as the best boundary step along
		// -g (a weak optimality check).
		gn := linalg.Norm2(g)
		if gn > 0 {
			cauchy := make([]float64, n)
			for i := range cauchy {
				cauchy[i] = -g[i] / gn * radius
			}
			// Optimal scaling of the Cauchy direction within the ball.
			best := 0.0
			for s := 0.05; s <= 1.0; s += 0.05 {
				scaled := make([]float64, n)
				for i := range scaled {
					scaled[i] = cauchy[i] * s
				}
				if mc := modelChange(h, g, scaled); mc < best {
					best = mc
				}
			}
			if pred > best+1e-8 {
				t.Fatalf("subproblem step (%v) worse than Cauchy point (%v)", pred, best)
			}
		}
	}
}

func TestLBFGSRosenbrock(t *testing.T) {
	x0 := []float64{-1.2, 1}
	fg := func(x []float64) (float64, []float64) {
		f, g, _ := rosenbrockFull(x)
		return f, g
	}
	res := LBFGS(fg, x0, LBFGSOptions{MaxIter: 2000, GradTol: 1e-7})
	if !res.Converged {
		t.Fatalf("did not converge: %s", res.Status)
	}
	if math.Abs(res.X[0]-1) > 1e-5 || math.Abs(res.X[1]-1) > 1e-5 {
		t.Errorf("converged to %v", res.X)
	}
}

func TestNewtonBeatsLBFGSOnIllConditioned(t *testing.T) {
	// An ill-conditioned quadratic: Newton needs O(1) iterations, L-BFGS
	// needs many. This is the paper's Section IV-D claim in miniature.
	n := 20
	diag := make([]float64, n)
	for i := range diag {
		diag[i] = math.Pow(10, float64(i)/4) // condition number 10^4.75
	}
	full := func(x []float64) (float64, []float64, *linalg.Mat) {
		f := 0.0
		g := make([]float64, n)
		h := linalg.NewMat(n, n)
		for i := range x {
			f += 0.5 * diag[i] * x[i] * x[i]
			g[i] = diag[i] * x[i]
			h.Set(i, i, diag[i])
		}
		return f, g, h
	}
	fg := func(x []float64) (float64, []float64) {
		f, g, _ := full(x)
		return f, g
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1
	}
	newton := newtonTR(full, x0, TROptions{GradTol: 1e-6})
	lbfgs := LBFGS(fg, x0, LBFGSOptions{GradTol: 1e-6})
	if !newton.Converged {
		t.Fatalf("Newton did not converge: %v", newton.Status)
	}
	// L-BFGS either converges much more slowly or exhausts its iteration
	// budget entirely — both match the paper's observation.
	if lbfgs.Converged && newton.Iters >= lbfgs.Iters {
		t.Errorf("Newton (%d iters) not faster than L-BFGS (%d iters)",
			newton.Iters, lbfgs.Iters)
	}
	if newton.Iters > 30 {
		t.Errorf("Newton took %d iterations on a quadratic", newton.Iters)
	}
}

func TestLBFGSDescentProperty(t *testing.T) {
	// f values must be non-increasing across accepted iterations; verify by
	// tracking calls.
	var values []float64
	fg := func(x []float64) (float64, []float64) {
		f, g, _ := rosenbrockFull(x)
		return f, g
	}
	wrapped := func(x []float64) (float64, []float64) {
		f, g := fg(x)
		values = append(values, f)
		return f, g
	}
	res := LBFGS(wrapped, []float64{0, 0}, LBFGSOptions{MaxIter: 200})
	if res.F > values[0] {
		t.Errorf("final value %v above initial %v", res.F, values[0])
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
	perEvalShort := short - 3*float64(resShort.GradEvals)
	perEvalLong := long - 3*float64(resLong.GradEvals)
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

func BenchmarkNewtonTR28(b *testing.B) {
	n := 28
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = -1.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newtonTR(rosenbrockFull, x0, TROptions{MaxIter: 200})
	}
}
