package dual

import "math"

// First is the first-order sibling of Dual: a value and its gradient over
// the same N variables, with no Hessian. The gradient tier of the ELBO builds
// its mixture components from First numbers — carrying the 21-entry packed
// Hessian through every operation only to discard it made the component
// build a tenth of a gradient-tier patch sweep.
//
// Every operation evaluates its value and gradient by the same expressions,
// in the same order, as the Dual operation of the same name, so a quantity
// computed both ways agrees bitwise in V and G (see TestFirstMatchesDual).
type First struct {
	V float64
	G [N]float64
}

// FirstVar returns the i-th independent variable with value v.
func FirstVar(v float64, i int) First {
	d := First{V: v}
	d.G[i] = 1
	return d
}

// Add returns a + b.
func (a First) Add(b First) First {
	a.V += b.V
	for i := 0; i < N; i++ {
		a.G[i] += b.G[i]
	}
	return a
}

// Sub returns a - b.
func (a First) Sub(b First) First {
	a.V -= b.V
	for i := 0; i < N; i++ {
		a.G[i] -= b.G[i]
	}
	return a
}

// AddConst returns a + c.
func (a First) AddConst(c float64) First {
	a.V += c
	return a
}

// Scale returns c * a.
func (a First) Scale(c float64) First {
	a.V *= c
	for i := 0; i < N; i++ {
		a.G[i] *= c
	}
	return a
}

// Neg returns -a.
func (a First) Neg() First { return a.Scale(-1) }

// Mul returns a * b.
func (a First) Mul(b First) First {
	var r First
	r.V = a.V * b.V
	for i := 0; i < N; i++ {
		r.G[i] = a.G[i]*b.V + b.G[i]*a.V
	}
	return r
}

// unary applies f with value f0 and first derivative f1 at a.V.
func (a First) unary(f0, f1 float64) First {
	a.V = f0
	for i := 0; i < N; i++ {
		a.G[i] *= f1
	}
	return a
}

// Recip returns 1 / a.
func (a First) Recip() First {
	inv := 1 / a.V
	return a.unary(inv, -inv*inv)
}

// Exp returns e^a.
func (a First) Exp() First {
	e := math.Exp(a.V)
	return a.unary(e, e)
}

// Sqrt returns the square root of a.
func (a First) Sqrt() First {
	s := math.Sqrt(a.V)
	return a.unary(s, 0.5/s)
}

// Sqr returns a^2.
func (a First) Sqr() First { return a.unary(a.V*a.V, 2*a.V) }

// Logistic returns 1/(1+e^-a).
func (a First) Logistic() First {
	var s float64
	if a.V >= 0 {
		s = 1 / (1 + math.Exp(-a.V))
	} else {
		e := math.Exp(a.V)
		s = e / (1 + e)
	}
	return a.unary(s, s*(1-s))
}

// Sin returns sin(a).
func (a First) Sin() First {
	s, c := math.Sincos(a.V)
	return a.unary(s, c)
}

// Cos returns cos(a).
func (a First) Cos() First {
	s, c := math.Sincos(a.V)
	return a.unary(c, -s)
}
