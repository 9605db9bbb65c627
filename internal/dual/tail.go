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
// The operations work through pointers, as math/big's do: t.Mul(a, b) sets t
// to a·b and returns t, and t may be a or b. A Tail is 80 to 120 bytes, and
// Mul and the unary functions are too large to inline, so passing and
// returning values would copy each operand and result through memory.
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

// Widen sets r to a over variables 2..5, with +0 for every derivative in
// variable 2. H3 and H4 are both empty or both full.
func Widen[H3 [0]float64 | [6]float64, H4 [0]float64 | [10]float64](r *Tail[[4]float64, H4], a *Tail[[3]float64, H3]) {
	r.V = a.V
	r.G[0] = 0
	copy(r.G[1:], a.G[:])
	if len(r.H) == 0 {
		return
	}
	k := 0
	for i := 0; i < 4; i++ {
		for j := 0; j <= i; j++ {
			if i == 0 || j == 0 {
				r.H[Idx(i, j)] = 0
				continue
			}
			r.H[Idx(i, j)] = a.H[k]
			k++
		}
	}
}

// Lift returns a as a Dual over all N variables, with +0 for every
// derivative a does not carry.
func (a *Tail[G, H]) Lift() Dual {
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

// Add sets t to a + b and returns t.
func (t *Tail[G, H]) Add(a, b *Tail[G, H]) *Tail[G, H] {
	t.V = a.V + b.V
	for i := 0; i < len(t.G); i++ {
		t.G[i] = a.G[i] + b.G[i]
	}
	for k := 0; k < len(t.H); k++ {
		t.H[k] = a.H[k] + b.H[k]
	}
	return t
}

// Sub sets t to a - b and returns t.
func (t *Tail[G, H]) Sub(a, b *Tail[G, H]) *Tail[G, H] {
	t.V = a.V - b.V
	for i := 0; i < len(t.G); i++ {
		t.G[i] = a.G[i] - b.G[i]
	}
	for k := 0; k < len(t.H); k++ {
		t.H[k] = a.H[k] - b.H[k]
	}
	return t
}

// AddConst sets t to a + c and returns t.
func (t *Tail[G, H]) AddConst(a *Tail[G, H], c float64) *Tail[G, H] {
	t.V = a.V + c
	if t != a {
		t.G, t.H = a.G, a.H
	}
	return t
}

// Scale sets t to c * a and returns t.
func (t *Tail[G, H]) Scale(a *Tail[G, H], c float64) *Tail[G, H] {
	t.V = a.V * c
	for i := 0; i < len(t.G); i++ {
		t.G[i] = a.G[i] * c
	}
	for k := 0; k < len(t.H); k++ {
		t.H[k] = a.H[k] * c
	}
	return t
}

// Neg sets t to -a and returns t.
func (t *Tail[G, H]) Neg(a *Tail[G, H]) *Tail[G, H] { return t.Scale(a, -1) }

// Mul sets t to a * b and returns t. Each entry reads only a's and b's
// entries of the same index and of lower order, so it writes the Hessian,
// then the gradient, then the value.
func (t *Tail[G, H]) Mul(a, b *Tail[G, H]) *Tail[G, H] {
	k := 0
	for i := 0; i < len(t.G) && len(t.H) > 0; i++ {
		agi, bgi := a.G[i], b.G[i]
		for j := 0; j <= i; j++ {
			t.H[k] = a.H[k]*b.V + b.H[k]*a.V + agi*b.G[j] + a.G[j]*bgi
			k++
		}
	}
	for i := 0; i < len(t.G); i++ {
		t.G[i] = a.G[i]*b.V + b.G[i]*a.V
	}
	t.V = a.V * b.V
	return t
}

// unary sets t to f(a), where f has value f0 and first and second
// derivatives f1, f2 at a.V, and returns t. Like Mul it writes the Hessian,
// then the gradient, then the value.
func (t *Tail[G, H]) unary(a *Tail[G, H], f0, f1, f2 float64) *Tail[G, H] {
	k := 0
	for i := 0; i < len(t.G) && len(t.H) > 0; i++ {
		gi := a.G[i]
		for j := 0; j <= i; j++ {
			t.H[k] = f1*a.H[k] + f2*gi*a.G[j]
			k++
		}
	}
	for i := 0; i < len(t.G); i++ {
		t.G[i] = f1 * a.G[i]
	}
	t.V = f0
	return t
}

// Recip sets t to 1 / a and returns t.
func (t *Tail[G, H]) Recip(a *Tail[G, H]) *Tail[G, H] {
	inv := 1 / a.V
	return t.unary(a, inv, -inv*inv, 2*inv*inv*inv)
}

// Exp sets t to e^a and returns t.
func (t *Tail[G, H]) Exp(a *Tail[G, H]) *Tail[G, H] {
	e := math.Exp(a.V)
	return t.unary(a, e, e, e)
}

// Sqrt sets t to the square root of a and returns t.
func (t *Tail[G, H]) Sqrt(a *Tail[G, H]) *Tail[G, H] {
	s := math.Sqrt(a.V)
	return t.unary(a, s, 0.5/s, -0.25/(s*s*s))
}

// Sqr sets t to a^2 and returns t.
func (t *Tail[G, H]) Sqr(a *Tail[G, H]) *Tail[G, H] { return t.unary(a, a.V*a.V, 2*a.V, 2) }

// Logistic sets t to 1/(1+e^-a) and returns t.
func (t *Tail[G, H]) Logistic(a *Tail[G, H]) *Tail[G, H] {
	var s float64
	if a.V >= 0 {
		s = 1 / (1 + math.Exp(-a.V))
	} else {
		e := math.Exp(a.V)
		s = e / (1 + e)
	}
	return t.unary(a, s, s*(1-s), s*(1-s)*(1-2*s))
}

// Sin sets t to sin(a) and returns t.
func (t *Tail[G, H]) Sin(a *Tail[G, H]) *Tail[G, H] {
	s, c := math.Sincos(a.V)
	return t.unary(a, s, c, -s)
}

// Cos sets t to cos(a) and returns t.
func (t *Tail[G, H]) Cos(a *Tail[G, H]) *Tail[G, H] {
	s, c := math.Sincos(a.V)
	return t.unary(a, c, -s, -c)
}
