package dual

import (
	"math"
	"strings"
	"testing"

	"celeste/internal/ad"
	"celeste/internal/rng"
)

// toAD mirrors a Dual computation in the general ad package for comparison.
func adVars(vals [N]float64) (*ad.Space, []*ad.Num) {
	s := ad.NewSpace(N)
	return s, s.Vars(vals[:])
}

func checkMatch(t *testing.T, name string, got Dual, want *ad.Num, tol float64) {
	t.Helper()
	if math.Abs(got.V-want.Val) > tol*(1+math.Abs(want.Val)) {
		t.Errorf("%s: value %v, want %v", name, got.V, want.Val)
	}
	for i := 0; i < N; i++ {
		if math.Abs(got.G[i]-want.Grad[i]) > tol*(1+math.Abs(want.Grad[i])) {
			t.Errorf("%s: grad[%d] %v, want %v", name, i, got.G[i], want.Grad[i])
		}
	}
	for k := 0; k < HessLen; k++ {
		if math.Abs(got.H[k]-want.Hess[k]) > tol*(1+math.Abs(want.Hess[k])) {
			t.Errorf("%s: hess[%d] %v, want %v", name, k, got.H[k], want.Hess[k])
		}
	}
}

func TestOpsAgainstGeneralAD(t *testing.T) {
	vals := [N]float64{0.3, -0.7, 1.2, 0.5, 2.0, -0.4}
	_, xs := adVars(vals)
	var ds [N]Dual
	for i := 0; i < N; i++ {
		ds[i] = Var(vals[i], i)
	}

	// A representative composite touching every op:
	// f = exp(x0*x1) + log(x2^2 + 1.5) * logistic(x3) - sqrt(x2) / (x4^2+3)
	//     + sin(x5)*cos(x0) + (x1 - x3)^2
	got := Add(
		Add(
			Sub(
				Add(Exp(Mul(ds[0], ds[1])),
					Mul(Log(AddConst(Sqr(ds[2]), 1.5)), Logistic(ds[3]))),
				Div(Sqrt(ds[2]), AddConst(Sqr(ds[4]), 3))),
			Mul(Sin(ds[5]), Cos(ds[0]))),
		Sqr(Sub(ds[1], ds[3])))

	want := ad.Add(
		ad.Add(
			ad.Sub(
				ad.Add(ad.Exp(ad.Mul(xs[0], xs[1])),
					ad.Mul(ad.Log(ad.AddConst(ad.Sqr(xs[2]), 1.5)), ad.Logistic(xs[3]))),
				ad.Div(ad.Sqrt(xs[2]), ad.AddConst(ad.Sqr(xs[4]), 3))),
			ad.Mul(ad.Sin(xs[5]), ad.Cos(xs[0]))),
		ad.Sqr(ad.Sub(xs[1], xs[3])))

	checkMatch(t, "composite", got, want, 1e-12)
}

func TestRandomizedOpsAgainstAD(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 50; trial++ {
		var vals [N]float64
		for i := range vals {
			vals[i] = 0.2 + r.Float64()*2
		}
		_, xs := adVars(vals)
		var ds [N]Dual
		for i := 0; i < N; i++ {
			ds[i] = Var(vals[i], i)
		}
		// Gaussian-like kernel: K * exp(-q/2) with q a quadratic form whose
		// coefficients depend on other variables, matching the hot path.
		q := Add(Add(Mul(Mul(ds[2], ds[0]), ds[0]),
			Scale(2, Mul(Mul(ds[3], ds[0]), ds[1]))),
			Mul(Mul(ds[4], ds[1]), ds[1]))
		got := Mul(Recip(Sqrt(ds[5])), Exp(Scale(-0.5, q)))

		qa := ad.Add(ad.Add(ad.Mul(ad.Mul(xs[2], xs[0]), xs[0]),
			ad.Scale(2, ad.Mul(ad.Mul(xs[3], xs[0]), xs[1]))),
			ad.Mul(ad.Mul(xs[4], xs[1]), xs[1]))
		want := ad.Mul(ad.Div(ad.AddConst(ad.Scale(0, xs[0]), 1), ad.Sqrt(xs[5])),
			ad.Exp(ad.Scale(-0.5, qa)))

		checkMatch(t, "kernel", got, want, 1e-10)
	}
}

func TestIdx(t *testing.T) {
	// Idx must enumerate the packed lower triangle row-wise.
	k := 0
	for i := 0; i < N; i++ {
		for j := 0; j <= i; j++ {
			if Idx(i, j) != k {
				t.Fatalf("Idx(%d,%d) = %d, want %d", i, j, Idx(i, j), k)
			}
			k++
		}
	}
	if k != HessLen {
		t.Fatalf("HessLen = %d, want %d", HessLen, k)
	}
}

func TestVarBasics(t *testing.T) {
	v := Var(3, 2)
	if v.V != 3 || v.G[2] != 1 || v.G[0] != 0 {
		t.Errorf("Var wrong: %+v", v)
	}
	c := Const(5)
	s := Add(v, c)
	if s.V != 8 || s.G[2] != 1 {
		t.Errorf("Add wrong: %+v", s)
	}
}

func BenchmarkKernelEval(b *testing.B) {
	// One component evaluation resembling the per-pixel hot path.
	q11 := Var(1.2, 3)
	q12 := Var(0.1, 4)
	q22 := Var(0.9, 5)
	k := Var(0.5, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1 := Var(0.7, 0)
		d2 := Var(-0.3, 1)
		q := Add(Add(Mul(Mul(q11, d1), d1), Scale(2, Mul(Mul(q12, d1), d2))),
			Mul(Mul(q22, d2), d2))
		_ = Mul(k, Exp(Scale(-0.5, q)))
	}
}

// TestTailMatchesDual pins what the galaxy component build relies on: a
// computation carried out in Tail numbers reproduces, on every entry it
// carries, the same computation in Dual numbers whose other variables are
// constants, to 1e-15 relative (bitwise where the compiler does not fuse
// multiply-adds); a first-order Tail carries the same values and gradients
// and no second derivatives; and Lift and Widen put each entry where Dual
// keeps it.
func TestTailMatchesDual(t *testing.T) {
	r := rng.New(17)
	near := func(got, want, scale float64) bool {
		return math.Abs(got-want) <= 1e-15*(math.Abs(want)+scale)
	}
	for trial := 0; trial < 200; trial++ {
		var vals [N]float64
		for i := range vals {
			vals[i] = 0.2 + 2*r.Float64()
		}
		t3, t4 := tailExpr[[3]float64, [6]float64](vals), tailExpr[[4]float64, [10]float64](vals)
		g3, g4 := tailExpr[[3]float64, [0]float64](vals), tailExpr[[4]float64, [0]float64](vals)
		got := map[string]Dual{
			"Tail3": t3.Lift(), "Tail4": t4.Lift(), "Tail3 grad": g3.Lift(), "Tail4 grad": g4.Lift(),
		}
		for name, g := range got {
			lo, second := 3, !strings.HasSuffix(name, "grad")
			if strings.HasPrefix(name, "Tail4") {
				lo = 2
			}
			var ds [N]Dual
			for i, v := range vals {
				ds[i] = Const(v)
				if i >= lo {
					ds[i] = Var(v, i)
				}
			}
			w := dualExpr(ds)
			if !near(g.V, w.V, 0) {
				t.Fatalf("trial %d %s: value %v, dual %v", trial, name, g.V, w.V)
			}
			for i := 0; i < N; i++ {
				if !near(g.G[i], w.G[i], math.Abs(w.V)) {
					t.Fatalf("trial %d %s: grad[%d] %v, dual %v", trial, name, i, g.G[i], w.G[i])
				}
				for j := 0; j <= i; j++ {
					k := Idx(i, j)
					if want := w.H[k]; second && !near(g.H[k], want, math.Abs(w.V)) || !second && g.H[k] != 0 {
						t.Fatalf("trial %d %s: hess(%d,%d) %v, dual %v", trial, name, i, j, g.H[k], want)
					}
				}
			}
		}
		x := TailVar[[3]float64, [6]float64](vals[4], 4)
		y := TailVar[[3]float64, [6]float64](vals[3], 3)
		x.Mul(x.Sqr(&x), &y)
		// Widen must overwrite every entry of its destination.
		wide := Tail4{V: 7, G: [4]float64{7, 7, 7, 7}, H: [10]float64{7, 7, 7, 7, 7, 7, 7, 7, 7, 7}}
		Widen(&wide, &x)
		if w, lifted := wide.Lift(), x.Lift(); w != lifted {
			t.Fatalf("trial %d: Widen moved an entry: %v, %v", trial, w, lifted)
		}
	}
}

// tailExpr evaluates dualExpr's expression in Tail numbers over the last
// len(G) variables, the others constants.
func tailExpr[G [3]float64 | [4]float64, H [0]float64 | [6]float64 | [10]float64](vals [N]float64) Tail[G, H] {
	var ts [N]Tail[G, H]
	for i, v := range vals {
		ts[i] = Tail[G, H]{V: v}
		if i >= N-len(ts[i].G) {
			ts[i] = TailVar[G, H](v, i)
		}
	}
	// Every Tail op once: exp, sqr, sqrt, recip, logistic, sin, cos, mul,
	// add, sub, scale, neg, addconst; most of them set one of their own
	// operands, the first (x.Mul(&x, …)) or the second (y.Add(&x, &y)).
	var x, y, z Tail[G, H]
	x.Exp(x.Neg(x.Mul(&ts[0], &ts[5])))
	x.Mul(&x, y.Logistic(&ts[3]))
	y.Recip(y.AddConst(y.Sqr(&ts[4]), 3))
	y.Mul(&y, z.Sqrt(&ts[2]))
	y.Add(&x, &y)
	x.Mul(x.Sin(&ts[5]), z.Cos(&ts[1]))
	return *y.Sub(&y, x.Scale(&x, 0.7))
}

// dualExpr is tailExpr's expression in Dual numbers.
func dualExpr(ds [N]Dual) Dual {
	return Sub(
		Add(Mul(Exp(Neg(Mul(ds[0], ds[5]))), Logistic(ds[3])),
			Mul(Recip(AddConst(Sqr(ds[4]), 3)), Sqrt(ds[2]))),
		Scale(0.7, Mul(Sin(ds[5]), Cos(ds[1]))))
}
