package dual

import "math"

// Tail is a dual number over the last len(G) of the N variables — the
// shape coordinates a galaxy component's normalization and
// precision depend on. Its packed Hessian H covers those variables only,
// with entry (i, j), i >= j, counted from the first of them. A galaxy's
// precision entries depend on variables 3..5 (Tail3) and its normalization
// on 2..5 (Tail4); carrying only those, instead of all N, is what makes the
// per-patch component build cheap.
//
// Every operation evaluates each entry by the same expression, in the same
// order, as the Dual operation of the same name evaluates that entry, so a
// quantity computed both ways agrees bitwise on the entries a Tail carries.
//
// An empty H ([0]float64) makes a first-order Tail: the same values and
// gradients, bit for bit, with no second derivatives computed.
type Tail[G [3]float64 | [4]float64, H [0]float64 | [6]float64 | [10]float64] struct {
	V float64
	G G
	H H
}

// Tail3 is a second-order Tail over variables 3..5, Tail4 one over
// variables 2..5.
type (
	Tail3 = Tail[[3]float64, [6]float64]
	Tail4 = Tail[[4]float64, [10]float64]
)

// TailVar returns variable i, one of the last len(G) variables, with value
// v.
func TailVar[G [3]float64 | [4]float64, H [0]float64 | [6]float64 | [10]float64](v float64, i int) Tail[G, H] {
	d := Tail[G, H]{V: v}
	d.G[i-(N-len(d.G))] = 1
	return d
}

// Widen returns a over variables 2..5, with +0 for every derivative in
// variable 2. H3 and H4 are both empty or both full.
func Widen[H3 [0]float64 | [6]float64, H4 [0]float64 | [10]float64](a Tail[[3]float64, H3]) Tail[[4]float64, H4] {
	r := Tail[[4]float64, H4]{V: a.V}
	copy(r.G[1:], a.G[:])
	if len(r.H) == 0 {
		return r
	}
	k := 0
	for i := 1; i < 4; i++ {
		for j := 1; j <= i; j++ {
			r.H[Idx(i, j)] = a.H[k]
			k++
		}
	}
	return r
}

// Lift returns a as a Dual over all N variables, with +0 for every
// derivative a does not carry.
func (a Tail[G, H]) Lift() Dual {
	off := N - len(a.G)
	d := Dual{V: a.V}
	k := 0
	for i := 0; i < len(a.G); i++ {
		d.G[off+i] = a.G[i]
		for j := 0; j <= i && len(a.H) > 0; j++ {
			d.H[Idx(off+i, off+j)] = a.H[k]
			k++
		}
	}
	return d
}

// Add returns a + b.
func (a Tail[G, H]) Add(b Tail[G, H]) Tail[G, H] {
	a.V += b.V
	for i := 0; i < len(a.G); i++ {
		a.G[i] += b.G[i]
	}
	for k := 0; k < len(a.H); k++ {
		a.H[k] += b.H[k]
	}
	return a
}

// Sub returns a - b.
func (a Tail[G, H]) Sub(b Tail[G, H]) Tail[G, H] {
	a.V -= b.V
	for i := 0; i < len(a.G); i++ {
		a.G[i] -= b.G[i]
	}
	for k := 0; k < len(a.H); k++ {
		a.H[k] -= b.H[k]
	}
	return a
}

// AddConst returns a + c.
func (a Tail[G, H]) AddConst(c float64) Tail[G, H] {
	a.V += c
	return a
}

// Scale returns c * a.
func (a Tail[G, H]) Scale(c float64) Tail[G, H] {
	a.V *= c
	for i := 0; i < len(a.G); i++ {
		a.G[i] *= c
	}
	for k := 0; k < len(a.H); k++ {
		a.H[k] *= c
	}
	return a
}

// Neg returns -a.
func (a Tail[G, H]) Neg() Tail[G, H] { return a.Scale(-1) }

// Mul returns a * b.
func (a Tail[G, H]) Mul(b Tail[G, H]) Tail[G, H] {
	var r Tail[G, H]
	r.V = a.V * b.V
	for i := 0; i < len(a.G); i++ {
		r.G[i] = a.G[i]*b.V + b.G[i]*a.V
	}
	if len(r.H) == 0 {
		return r
	}
	k := 0
	for i := 0; i < len(a.G); i++ {
		agi, bgi := a.G[i], b.G[i]
		for j := 0; j <= i; j++ {
			r.H[k] = a.H[k]*b.V + b.H[k]*a.V + agi*b.G[j] + a.G[j]*bgi
			k++
		}
	}
	return r
}

// unary applies f with value f0 and first and second derivatives f1, f2 at
// a.V.
func (a Tail[G, H]) unary(f0, f1, f2 float64) Tail[G, H] {
	var r Tail[G, H]
	r.V = f0
	for i := 0; i < len(a.G); i++ {
		r.G[i] = f1 * a.G[i]
	}
	if len(r.H) == 0 {
		return r
	}
	k := 0
	for i := 0; i < len(a.G); i++ {
		gi := a.G[i]
		for j := 0; j <= i; j++ {
			r.H[k] = f1*a.H[k] + f2*gi*a.G[j]
			k++
		}
	}
	return r
}

// Recip returns 1 / a.
func (a Tail[G, H]) Recip() Tail[G, H] {
	inv := 1 / a.V
	return a.unary(inv, -inv*inv, 2*inv*inv*inv)
}

// Exp returns e^a.
func (a Tail[G, H]) Exp() Tail[G, H] {
	e := math.Exp(a.V)
	return a.unary(e, e, e)
}

// Sqrt returns the square root of a.
func (a Tail[G, H]) Sqrt() Tail[G, H] {
	s := math.Sqrt(a.V)
	return a.unary(s, 0.5/s, -0.25/(s*s*s))
}

// Sqr returns a^2.
func (a Tail[G, H]) Sqr() Tail[G, H] { return a.unary(a.V*a.V, 2*a.V, 2) }

// Logistic returns 1/(1+e^-a).
func (a Tail[G, H]) Logistic() Tail[G, H] {
	var s float64
	if a.V >= 0 {
		s = 1 / (1 + math.Exp(-a.V))
	} else {
		e := math.Exp(a.V)
		s = e / (1 + e)
	}
	return a.unary(s, s*(1-s), s*(1-s)*(1-2*s))
}

// Sin returns sin(a).
func (a Tail[G, H]) Sin() Tail[G, H] {
	s, c := math.Sincos(a.V)
	return a.unary(s, c, -s)
}

// Cos returns cos(a).
func (a Tail[G, H]) Cos() Tail[G, H] {
	s, c := math.Sincos(a.V)
	return a.unary(c, -s, -c)
}
