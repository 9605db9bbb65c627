package ad

import (
	"math"
	"testing"

	"celeste/internal/rng"
)

// checkAgainstFD validates a Num built from expr against finite differences
// of the scalar version of the same function.
func checkAgainstFD(t *testing.T, name string,
	expr func(s *Space, xs []*Num) *Num,
	scalar func(x []float64) float64,
	at []float64, tol float64) {
	t.Helper()
	n := len(at)
	s := NewSpace(n)
	y := expr(s, s.Vars(at))
	if want := scalar(at); math.Abs(y.Val-want) > tol*(1+math.Abs(want)) {
		t.Errorf("%s: value = %v, want %v", name, y.Val, want)
	}
	g := Gradient(scalar, at, 1e-5)
	for i := range g {
		if math.Abs(y.Grad[i]-g[i]) > tol*(1+math.Abs(g[i])) {
			t.Errorf("%s: grad[%d] = %v, FD %v", name, i, y.Grad[i], g[i])
		}
	}
	h := Hessian(scalar, at, 1e-4)
	for k := range h {
		if math.Abs(y.Hess[k]-h[k]) > 100*tol*(1+math.Abs(h[k])) {
			t.Errorf("%s: hess[%d] = %v, FD %v", name, k, y.Hess[k], h[k])
		}
	}
}

func TestArithmetic(t *testing.T) {
	checkAgainstFD(t, "poly",
		func(s *Space, xs []*Num) *Num {
			// x^2 y + 3 x / y - y^3
			return Sub(Add(Mul(Sqr(xs[0]), xs[1]), Div(Scale(3, xs[0]), xs[1])),
				PowConst(xs[1], 3))
		},
		func(x []float64) float64 {
			return x[0]*x[0]*x[1] + 3*x[0]/x[1] - math.Pow(x[1], 3)
		},
		[]float64{1.3, 0.7}, 1e-6)
}

func TestTranscendental(t *testing.T) {
	checkAgainstFD(t, "transcendental",
		func(s *Space, xs []*Num) *Num {
			// exp(x) log(y) + sqrt(x*y) + logistic(x - y)
			return Add(Add(Mul(Exp(xs[0]), Log(xs[1])), Sqrt(Mul(xs[0], xs[1]))),
				Logistic(Sub(xs[0], xs[1])))
		},
		func(x []float64) float64 {
			return math.Exp(x[0])*math.Log(x[1]) + math.Sqrt(x[0]*x[1]) +
				1/(1+math.Exp(-(x[0]-x[1])))
		},
		[]float64{0.8, 2.1}, 1e-6)
}

func TestTrig(t *testing.T) {
	checkAgainstFD(t, "trig",
		func(s *Space, xs []*Num) *Num {
			return Add(Mul(Sin(xs[0]), Cos(xs[1])), Sin(Mul(xs[0], xs[1])))
		},
		func(x []float64) float64 {
			return math.Sin(x[0])*math.Cos(x[1]) + math.Sin(x[0]*x[1])
		},
		[]float64{0.4, 1.1}, 1e-6)
}

func TestLogSumExp(t *testing.T) {
	checkAgainstFD(t, "lse",
		func(s *Space, xs []*Num) *Num { return LogSumExp(xs) },
		func(x []float64) float64 {
			m := math.Max(x[0], math.Max(x[1], x[2]))
			return m + math.Log(math.Exp(x[0]-m)+math.Exp(x[1]-m)+math.Exp(x[2]-m))
		},
		[]float64{0.5, -1.2, 2.0}, 1e-6)
}

func TestLog1pAccuracy(t *testing.T) {
	s := NewSpace(1)
	x := s.Var(1e-12, 0)
	y := Log1p(x)
	if math.Abs(y.Val-math.Log1p(1e-12)) > 1e-25 {
		t.Errorf("Log1p value = %v", y.Val)
	}
	if math.Abs(y.Grad[0]-1) > 1e-11 {
		t.Errorf("Log1p grad = %v", y.Grad[0])
	}
}

func TestChainRuleDeepComposition(t *testing.T) {
	// f(x) = logistic(exp(sin(x^2))) exercised through several layers.
	checkAgainstFD(t, "deep",
		func(s *Space, xs []*Num) *Num {
			return Logistic(Exp(Sin(Sqr(xs[0]))))
		},
		func(x []float64) float64 {
			return 1 / (1 + math.Exp(-math.Exp(math.Sin(x[0]*x[0]))))
		},
		[]float64{0.9}, 1e-6)
}

func TestHessSymmetryAccessor(t *testing.T) {
	s := NewSpace(3)
	xs := s.Vars([]float64{1, 2, 3})
	y := Mul(Mul(xs[0], xs[1]), xs[2])
	if y.HessAt(0, 2) != y.HessAt(2, 0) {
		t.Error("HessAt not symmetric")
	}
	// d2/dx0dx1 (x0 x1 x2) = x2 = 3.
	if got := y.HessAt(0, 1); got != 3 {
		t.Errorf("HessAt(0,1) = %v, want 3", got)
	}
}

func TestRandomExpressionsAgainstFD(t *testing.T) {
	// Property-style: random composites agree with finite differences.
	r := rng.New(99)
	for trial := 0; trial < 20; trial++ {
		a := 0.5 + r.Float64()
		b := 0.5 + r.Float64()
		c := 0.5 + r.Float64()
		at := []float64{a, b, c}
		checkAgainstFD(t, "random",
			func(s *Space, xs []*Num) *Num {
				u := Add(Mul(xs[0], xs[1]), Exp(Scale(0.3, xs[2])))
				v := Div(Sqrt(xs[1]), AddConst(Sqr(xs[2]), 1))
				return Add(Log(u), Mul(u, v))
			},
			func(x []float64) float64 {
				u := x[0]*x[1] + math.Exp(0.3*x[2])
				v := math.Sqrt(x[1]) / (x[2]*x[2] + 1)
				return math.Log(u) + u*v
			},
			at, 1e-5)
	}
}

func TestConstHasZeroDerivatives(t *testing.T) {
	s := NewSpace(4)
	c := s.Const(3.14)
	for _, g := range c.Grad {
		if g != 0 {
			t.Fatal("const gradient nonzero")
		}
	}
	y := Mul(c, s.Var(2, 1))
	if y.Val != 6.28 {
		t.Errorf("value = %v", y.Val)
	}
	if y.Grad[1] != 3.14 {
		t.Errorf("grad = %v", y.Grad[1])
	}
}

func BenchmarkMulDim6(b *testing.B) {
	s := NewSpace(6)
	x := s.Var(1.5, 0)
	y := s.Var(2.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}

func BenchmarkMulDim44(b *testing.B) {
	s := NewSpace(44)
	x := s.Var(1.5, 0)
	y := s.Var(2.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Mul(x, y)
	}
}
