package dual

import (
	"math"
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

// TestFirstMatchesDual pins the contract the gradient tier's component build
// relies on: a computation carried out in First numbers reproduces the value
// and gradient of the same computation in Dual numbers to 1e-15 relative
// (bitwise where the compiler does not fuse multiply-adds).
func TestFirstMatchesDual(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 200; trial++ {
		var ds [N]Dual
		var fs [N]First
		for i := 0; i < N; i++ {
			v := 0.2 + 2*r.Float64()
			ds[i] = Var(v, i)
			fs[i] = FirstVar(v, i)
		}
		// Every First op once: exp, sqr, sqrt, recip, logistic, sin, cos,
		// mul, add, sub, scale, neg, addconst.
		want := Sub(
			Add(Mul(Exp(Neg(Mul(ds[0], ds[1]))), Logistic(ds[3])),
				Mul(Recip(AddConst(Sqr(ds[4]), 3)), Sqrt(ds[2]))),
			Scale(0.7, Mul(Sin(ds[5]), Cos(ds[0]))))
		got := fs[0].Mul(fs[1]).Neg().Exp().Mul(fs[3].Logistic()).
			Add(fs[4].Sqr().AddConst(3).Recip().Mul(fs[2].Sqrt())).
			Sub(fs[5].Sin().Mul(fs[0].Cos()).Scale(0.7))
		if math.Abs(got.V-want.V) > 1e-15*math.Abs(want.V) {
			t.Fatalf("trial %d: value %v, dual %v", trial, got.V, want.V)
		}
		for i := 0; i < N; i++ {
			if math.Abs(got.G[i]-want.G[i]) > 1e-15*(math.Abs(want.G[i])+math.Abs(want.V)) {
				t.Fatalf("trial %d: grad[%d] %v, dual %v", trial, i, got.G[i], want.G[i])
			}
		}
	}
}
