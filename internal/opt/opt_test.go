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

// fnObjective adapts a test function pair to Objective; its Grad tier is a
// Full evaluation with the Hessian dropped.
type fnObjective struct {
	full  fullFn
	value func(x []float64) float64
}

func (o fnObjective) Full(x []float64) (float64, []float64, *linalg.Mat) { return o.full(x) }
func (o fnObjective) Grad(x []float64) (float64, []float64) {
	f, g, _ := o.full(x)
	return f, g
}
func (o fnObjective) Value(x []float64) float64 { return o.value(x) }

// newtonTR runs NewtonTRWS on a test function pair in a fresh workspace.
func newtonTR(full fullFn, value func(x []float64) float64, x0 []float64, opts TROptions) Result {
	return NewtonTRWS(fnObjective{full, value}, x0, NewWorkspace(len(x0)), opts)
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

func rosenbrockVal(x []float64) float64 {
	f, _, _ := rosenbrockFull(x)
	return f
}

func TestNewtonTRRosenbrock(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		x0 := make([]float64, n)
		for i := range x0 {
			x0[i] = -1.2
		}
		res := newtonTR(rosenbrockFull, rosenbrockVal, x0, TROptions{MaxIter: 300})
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
	val := func(x []float64) float64 {
		f, _, _ := full(x)
		return f
	}
	res := newtonTR(full, val, make([]float64, n), TROptions{})
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
	val := func(x []float64) float64 {
		f, _, _ := full(x)
		return f
	}
	res := newtonTR(full, val, []float64{0.05, 1}, TROptions{})
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
	val := func(x []float64) float64 {
		f, _, _ := full(x)
		return f
	}
	fg := func(x []float64) (float64, []float64) {
		f, g, _ := full(x)
		return f, g
	}
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = 1
	}
	newton := newtonTR(full, val, x0, TROptions{GradTol: 1e-6})
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

func BenchmarkNewtonTR44(b *testing.B) {
	n := 44
	x0 := make([]float64, n)
	for i := range x0 {
		x0[i] = -1.2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newtonTR(rosenbrockFull, rosenbrockVal, x0, TROptions{MaxIter: 200})
	}
}
