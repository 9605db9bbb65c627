// Package dual implements fixed-dimension second-order dual numbers for the
// per-pixel hot path of the ELBO. The differentiation variables are the six
// spatial parameters of one light source, in unconstrained coordinates:
//
//	0, 1  position (RA, Dec offsets, degrees)
//	2     galaxy de Vaucouleurs mixture logit
//	3     galaxy axis-ratio logit
//	4     galaxy orientation angle (radians)
//	5     galaxy log scale (log degrees)
//
// This mirrors the paper's "hand-coded derivatives that leverage custom index
// types to exploit Hessian sparsity structure" (Section V): pixel terms only
// touch these six coordinates, so each pixel carries a 6-vector gradient and
// a packed 21-entry Hessian (27 numbers) instead of the full
// model.ParamDim-dimensional block's 405. The brightness and prior
// coordinates enter the objective only through per-source factors, which
// internal/elbo chains in analytically.
//
// The sparsity goes one level further inside a galaxy component: its
// normalization depends on coordinates 2..5 and its precision on 3..5 only,
// so mog's component build runs in Tail numbers over those trailing
// coordinates (tail.go) and the per-pixel oracles lift them to Dual.
//
// All operations are allocation-free; values are plain structs.
package dual

import "math"

// N is the number of differentiation variables.
const N = 6

// HessLen is the packed lower-triangle length for N variables.
const HessLen = N * (N + 1) / 2

// Dual carries a value, gradient, and packed symmetric Hessian.
type Dual struct {
	V float64
	G [N]float64
	H [HessLen]float64
}

// Idx returns the packed Hessian index for (i, j) with i >= j.
func Idx(i, j int) int { return i*(i+1)/2 + j }

// Const returns a constant with zero derivatives.
func Const(v float64) Dual { return Dual{V: v} }

// Var returns the i-th independent variable with value v.
func Var(v float64, i int) Dual {
	d := Dual{V: v}
	d.G[i] = 1
	return d
}

// Add returns a + b.
func Add(a, b Dual) Dual {
	var r Dual
	r.V = a.V + b.V
	for i := 0; i < N; i++ {
		r.G[i] = a.G[i] + b.G[i]
	}
	for k := 0; k < HessLen; k++ {
		r.H[k] = a.H[k] + b.H[k]
	}
	return r
}

// Sub returns a - b.
func Sub(a, b Dual) Dual {
	var r Dual
	r.V = a.V - b.V
	for i := 0; i < N; i++ {
		r.G[i] = a.G[i] - b.G[i]
	}
	for k := 0; k < HessLen; k++ {
		r.H[k] = a.H[k] - b.H[k]
	}
	return r
}

// AddConst returns a + c.
func AddConst(a Dual, c float64) Dual {
	a.V += c
	return a
}

// Scale returns c * a.
func Scale(c float64, a Dual) Dual {
	a.V *= c
	for i := 0; i < N; i++ {
		a.G[i] *= c
	}
	for k := 0; k < HessLen; k++ {
		a.H[k] *= c
	}
	return a
}

// Neg returns -a.
func Neg(a Dual) Dual { return Scale(-1, a) }

// Mul returns a * b.
func Mul(a, b Dual) Dual {
	var r Dual
	r.V = a.V * b.V
	for i := 0; i < N; i++ {
		r.G[i] = a.G[i]*b.V + b.G[i]*a.V
	}
	k := 0
	for i := 0; i < N; i++ {
		agi, bgi := a.G[i], b.G[i]
		for j := 0; j <= i; j++ {
			r.H[k] = a.H[k]*b.V + b.H[k]*a.V + agi*b.G[j] + a.G[j]*bgi
			k++
		}
	}
	return r
}

// unary applies f with first and second derivative values f1, f2 at a.V.
func unary(a Dual, f0, f1, f2 float64) Dual {
	var r Dual
	r.V = f0
	for i := 0; i < N; i++ {
		r.G[i] = f1 * a.G[i]
	}
	k := 0
	for i := 0; i < N; i++ {
		gi := a.G[i]
		for j := 0; j <= i; j++ {
			r.H[k] = f1*a.H[k] + f2*gi*a.G[j]
			k++
		}
	}
	return r
}

// Recip returns 1 / a.
func Recip(a Dual) Dual {
	inv := 1 / a.V
	return unary(a, inv, -inv*inv, 2*inv*inv*inv)
}

// Div returns a / b.
func Div(a, b Dual) Dual { return Mul(a, Recip(b)) }

// Exp returns e^a.
func Exp(a Dual) Dual {
	e := math.Exp(a.V)
	return unary(a, e, e, e)
}

// Log returns ln(a).
func Log(a Dual) Dual {
	inv := 1 / a.V
	return unary(a, math.Log(a.V), inv, -inv*inv)
}

// Sqrt returns the square root of a.
func Sqrt(a Dual) Dual {
	s := math.Sqrt(a.V)
	return unary(a, s, 0.5/s, -0.25/(s*s*s))
}

// Sqr returns a^2.
func Sqr(a Dual) Dual { return unary(a, a.V*a.V, 2*a.V, 2) }

// Logistic returns 1/(1+e^-a).
func Logistic(a Dual) Dual {
	var s float64
	if a.V >= 0 {
		s = 1 / (1 + math.Exp(-a.V))
	} else {
		e := math.Exp(a.V)
		s = e / (1 + e)
	}
	return unary(a, s, s*(1-s), s*(1-s)*(1-2*s))
}

// Sin returns sin(a).
func Sin(a Dual) Dual {
	s, c := math.Sincos(a.V)
	return unary(a, s, c, -s)
}

// Cos returns cos(a).
func Cos(a Dual) Dual {
	s, c := math.Sincos(a.V)
	return unary(a, c, -s, -c)
}
