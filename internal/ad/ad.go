// Package ad implements forward-mode automatic differentiation carrying a
// value, a dense gradient, and a packed symmetric Hessian through arithmetic.
// It is a test-only oracle: no production package imports it (CI checks). The
// whole-objective reference refELBO and its KL and flux-moment sections check
// the hand-coded derivatives of internal/elbo, and mog's and dual's tests
// check theirs, the way the paper checks its hand-coded derivatives against
// ForwardDiff.jl. Gradient and Hessian are the finite-difference oracles for
// the AD itself.
//
// A Num with dimension n costs O(n^2) per multiplication and every operation
// allocates its result; both are fine for tests.
package ad

import "math"

// Num is a second-order forward-mode dual number: value, gradient, and the
// lower triangle of the Hessian packed row-wise (index i*(i+1)/2 + j for
// i >= j).
type Num struct {
	Val  float64
	Grad []float64
	Hess []float64
}

// Dim returns the differentiation dimension of x.
func (x *Num) Dim() int { return len(x.Grad) }

// HessAt returns the (i, j) Hessian entry.
func (x *Num) HessAt(i, j int) float64 {
	if i < j {
		i, j = j, i
	}
	return x.Hess[i*(i+1)/2+j]
}

// PackedIndex returns the packed lower-triangle index for (i, j), i >= j.
func PackedIndex(i, j int) int { return i*(i+1)/2 + j }

// PackedLen returns the packed Hessian length for dimension n.
func PackedLen(n int) int { return n * (n + 1) / 2 }

// Space fixes the differentiation dimension for a family of Nums.
type Space struct {
	n int
}

// NewSpace returns a Space of dimension n.
func NewSpace(n int) *Space { return &Space{n: n} }

// Dim returns the space dimension.
func (s *Space) Dim() int { return s.n }

// Const returns a constant (zero derivatives).
func (s *Space) Const(v float64) *Num {
	return &Num{Val: v, Grad: make([]float64, s.n), Hess: make([]float64, PackedLen(s.n))}
}

// Var returns the i-th independent variable with value v.
func (s *Space) Var(v float64, i int) *Num {
	x := s.Const(v)
	x.Grad[i] = 1
	return x
}

// Vars returns one independent variable per entry of vals.
func (s *Space) Vars(vals []float64) []*Num {
	if len(vals) != s.n {
		panic("ad: Vars length mismatch")
	}
	xs := make([]*Num, s.n)
	for i, v := range vals {
		xs[i] = s.Var(v, i)
	}
	return xs
}

// newLike returns a Num of x's dimension for a derived value.
func newLike(x *Num) *Num {
	return &Num{Grad: make([]float64, len(x.Grad)), Hess: make([]float64, len(x.Hess))}
}

// unary applies y = f(x) given f(x), f'(x), f”(x).
func unary(x *Num, f0, f1, f2 float64) *Num {
	y := newLike(x)
	y.Val = f0
	for i, g := range x.Grad {
		y.Grad[i] = f1 * g
	}
	k := 0
	for i := 0; i < len(x.Grad); i++ {
		gi := x.Grad[i]
		for j := 0; j <= i; j++ {
			y.Hess[k] = f1*x.Hess[k] + f2*gi*x.Grad[j]
			k++
		}
	}
	return y
}

// binary applies y = f(a, b) given the value and first/second partials.
func binary(a, b *Num, f0, fa, fb, faa, fab, fbb float64) *Num {
	y := newLike(a)
	y.Val = f0
	for i := range a.Grad {
		y.Grad[i] = fa*a.Grad[i] + fb*b.Grad[i]
	}
	k := 0
	for i := 0; i < len(a.Grad); i++ {
		agi, bgi := a.Grad[i], b.Grad[i]
		for j := 0; j <= i; j++ {
			agj, bgj := a.Grad[j], b.Grad[j]
			y.Hess[k] = fa*a.Hess[k] + fb*b.Hess[k] +
				faa*agi*agj + fab*(agi*bgj+agj*bgi) + fbb*bgi*bgj
			k++
		}
	}
	return y
}

// Add returns a + b.
func Add(a, b *Num) *Num { return binary(a, b, a.Val+b.Val, 1, 1, 0, 0, 0) }

// Sub returns a - b.
func Sub(a, b *Num) *Num { return binary(a, b, a.Val-b.Val, 1, -1, 0, 0, 0) }

// Mul returns a * b.
func Mul(a, b *Num) *Num { return binary(a, b, a.Val*b.Val, b.Val, a.Val, 0, 1, 0) }

// Div returns a / b.
func Div(a, b *Num) *Num {
	inv := 1 / b.Val
	return binary(a, b, a.Val*inv, inv, -a.Val*inv*inv,
		0, -inv*inv, 2*a.Val*inv*inv*inv)
}

// AddConst returns x + c.
func AddConst(x *Num, c float64) *Num { return unary(x, x.Val+c, 1, 0) }

// Scale returns c * x.
func Scale(c float64, x *Num) *Num { return unary(x, c*x.Val, c, 0) }

// Neg returns -x.
func Neg(x *Num) *Num { return Scale(-1, x) }

// Exp returns e^x.
func Exp(x *Num) *Num {
	e := math.Exp(x.Val)
	return unary(x, e, e, e)
}

// Log returns ln(x).
func Log(x *Num) *Num {
	inv := 1 / x.Val
	return unary(x, math.Log(x.Val), inv, -inv*inv)
}

// Log1p returns ln(1 + x) computed accurately near zero.
func Log1p(x *Num) *Num {
	inv := 1 / (1 + x.Val)
	return unary(x, math.Log1p(x.Val), inv, -inv*inv)
}

// Sqrt returns the square root of x.
func Sqrt(x *Num) *Num {
	s := math.Sqrt(x.Val)
	return unary(x, s, 0.5/s, -0.25/(s*s*s))
}

// Sqr returns x^2.
func Sqr(x *Num) *Num { return unary(x, x.Val*x.Val, 2*x.Val, 2) }

// PowConst returns x^p for constant p.
func PowConst(x *Num, p float64) *Num {
	v := math.Pow(x.Val, p)
	return unary(x, v, p*v/x.Val, p*(p-1)*v/(x.Val*x.Val))
}

// Logistic returns 1/(1+e^-x).
func Logistic(x *Num) *Num {
	var s float64
	if x.Val >= 0 {
		s = 1 / (1 + math.Exp(-x.Val))
	} else {
		e := math.Exp(x.Val)
		s = e / (1 + e)
	}
	return unary(x, s, s*(1-s), s*(1-s)*(1-2*s))
}

// Sin returns sin(x).
func Sin(x *Num) *Num {
	s, c := math.Sincos(x.Val)
	return unary(x, s, c, -s)
}

// Cos returns cos(x).
func Cos(x *Num) *Num {
	s, c := math.Sincos(x.Val)
	return unary(x, c, -s, -c)
}

// Dot returns sum_i a_i * b_i.
func Dot(a, b []*Num) *Num {
	if len(a) != len(b) || len(a) == 0 {
		panic("ad: Dot length mismatch")
	}
	acc := Mul(a[0], b[0])
	for i := 1; i < len(a); i++ {
		acc = Add(acc, Mul(a[i], b[i]))
	}
	return acc
}

// Sum returns the sum of xs.
func Sum(xs []*Num) *Num {
	if len(xs) == 0 {
		panic("ad: Sum of empty slice")
	}
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = Add(acc, x)
	}
	return acc
}

// LogSumExp returns log(sum exp(x_i)) computed stably.
func LogSumExp(xs []*Num) *Num {
	m := math.Inf(-1)
	for _, x := range xs {
		if x.Val > m {
			m = x.Val
		}
	}
	var acc *Num
	for _, x := range xs {
		t := Exp(AddConst(x, -m))
		if acc == nil {
			acc = t
		} else {
			acc = Add(acc, t)
		}
	}
	return AddConst(Log(acc), m)
}

// Gradient evaluates f's gradient at x with central finite differences.
// It is a test oracle for the AD itself.
func Gradient(f func([]float64) float64, x []float64, h float64) []float64 {
	g := make([]float64, len(x))
	xp := make([]float64, len(x))
	for i := range x {
		copy(xp, x)
		xp[i] = x[i] + h
		fp := f(xp)
		xp[i] = x[i] - h
		fm := f(xp)
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

// Hessian evaluates f's Hessian at x with central finite differences,
// returned as a packed lower triangle.
func Hessian(f func([]float64) float64, x []float64, h float64) []float64 {
	n := len(x)
	hess := make([]float64, PackedLen(n))
	xp := make([]float64, n)
	f0 := f(x)
	k := 0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if i == j {
				copy(xp, x)
				xp[i] = x[i] + h
				fp := f(xp)
				xp[i] = x[i] - h
				fm := f(xp)
				hess[k] = (fp - 2*f0 + fm) / (h * h)
			} else {
				copy(xp, x)
				xp[i], xp[j] = x[i]+h, x[j]+h
				fpp := f(xp)
				copy(xp, x)
				xp[i], xp[j] = x[i]+h, x[j]-h
				fpm := f(xp)
				copy(xp, x)
				xp[i], xp[j] = x[i]-h, x[j]+h
				fmp := f(xp)
				copy(xp, x)
				xp[i], xp[j] = x[i]-h, x[j]-h
				fmm := f(xp)
				hess[k] = (fpp - fpm - fmp + fmm) / (4 * h * h)
			}
			k++
		}
	}
	return hess
}
