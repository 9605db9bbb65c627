//go:build amd64 || 386

// Like rowgrad_bitwise_test.go, these tests run where the compiler does not
// fuse multiply-adds (amd64 at its baseline, 386): there the subspace build
// and the dual.Dual reference perform exactly the same IEEE operations on
// every entry the build carries.

package mog

import (
	"math"
	"testing"

	"celeste/internal/dual"
	"celeste/internal/rng"
)

// refComp is one galaxy component of the reference build.
type refComp struct {
	K, Q11, Q12, Q22 dual.Dual
	MuX, MuY         float64
}

// buildRef is Build as a chain of dual.Dual operations over all six
// coordinates, the build the subspace chain replaced.
func buildRef(psf Mixture, expProf, devProf []ProfComp,
	rhoLogit, abLogit, angle, logScale float64, jac Jac2) []refComp {

	rho := dual.Logistic(dual.Var(rhoLogit, 2))
	ab := dual.Logistic(dual.Var(abLogit, 3))
	th := dual.Var(angle, 4)
	sigma := dual.Exp(dual.Var(logScale, 5))

	a := dual.Sqr(sigma)
	b := dual.Mul(a, dual.Sqr(ab))
	s := dual.Sin(th)
	c := dual.Cos(th)
	s2 := dual.Sqr(s)
	c2 := dual.Sqr(c)
	w11 := dual.Add(dual.Mul(a, c2), dual.Mul(b, s2))
	w12 := dual.Mul(dual.Sub(a, b), dual.Mul(s, c))
	w22 := dual.Add(dual.Mul(a, s2), dual.Mul(b, c2))

	t11 := dual.Add(dual.Scale(jac.A11, w11), dual.Scale(jac.A12, w12))
	t12 := dual.Add(dual.Scale(jac.A11, w12), dual.Scale(jac.A12, w22))
	t21 := dual.Add(dual.Scale(jac.A21, w11), dual.Scale(jac.A22, w12))
	t22 := dual.Add(dual.Scale(jac.A21, w12), dual.Scale(jac.A22, w22))
	p11 := dual.Add(dual.Scale(jac.A11, t11), dual.Scale(jac.A12, t12))
	p12 := dual.Add(dual.Scale(jac.A21, t11), dual.Scale(jac.A22, t12))
	p22 := dual.Add(dual.Scale(jac.A21, t21), dual.Scale(jac.A22, t22))

	var out []refComp
	oneMinusRho := dual.AddConst(dual.Neg(rho), 1)
	add := func(prof []ProfComp, mix dual.Dual) {
		for _, pc := range prof {
			for _, pk := range psf {
				s11 := dual.AddConst(dual.Scale(pc.Var, p11), pk.Sxx)
				s12 := dual.AddConst(dual.Scale(pc.Var, p12), pk.Sxy)
				s22 := dual.AddConst(dual.Scale(pc.Var, p22), pk.Syy)
				det := dual.Sub(dual.Mul(s11, s22), dual.Sqr(s12))
				invDet := dual.Recip(det)
				wt := dual.Scale(pc.Weight*pk.Weight/(2*math.Pi), mix)
				out = append(out, refComp{
					K:   dual.Mul(wt, dual.Recip(dual.Sqrt(det))),
					Q11: dual.Mul(s22, invDet),
					Q12: dual.Neg(dual.Mul(s12, invDet)),
					Q22: dual.Mul(s11, invDet),
					MuX: pk.MuX, MuY: pk.MuY,
				})
			}
		}
	}
	add(expProf, oneMinusRho)
	add(devProf, rho)
	return out
}

// buildCheck counts what checkBuildBitwise compared.
type buildCheck struct {
	entries   int // entries compared bit for bit
	zeroSigns int // coordinate-2 K entries equal only up to the sign of a zero
	zeroK     int // components with K = 0, whose derivatives nothing reads
}

// checkBuildBitwise builds a's evaluator with Build and with BuildGrad and
// compares, against buildRef, math.Float64bits of every entry production
// reads: each component's K and Q values, the derivatives the subspace build
// carries (BuildGrad's second derivatives must be +0), the row-sweep
// constants, and the galaxy lane table. Derivatives of a component with
// K = 0 are skipped: every sweep and moment contraction skips the
// component. One exception is allowed: a K entry involving coordinate 2
// (the profile mix) that is zero in both builds may differ in the sign of
// the zero. The reference adds to it a zero product carrying the sign of
// Q's coordinate-2 derivative, which is +0 or −0 depending on the angle and
// the Jacobian; the subspace chain does not carry that derivative. It shows
// only where the weight's own mix derivative is a zero, a mix logit below
// about −745 (the logistic underflows to 0), or its products underflow. The
// kernels add such an entry into accumulators that start at +0, where a
// zero's sign cannot show.
func checkBuildBitwise(t *testing.T, label string, a buildArgs, cnt *buildCheck) {
	t.Helper()
	grad := &Evaluator{}
	grad.BuildGrad(a.psf, a.expP, a.devP, a.rho, a.ab, a.th, a.logScale, a.jac)
	for _, ev := range []struct {
		name   string
		e      *Evaluator
		second bool
	}{{"Build", a.evaluator(), true}, {"BuildGrad", grad, false}} {
		checkEvaluatorBitwise(t, label+" "+ev.name, ev.e, ev.second, a, cnt)
	}
}

// checkEvaluatorBitwise is checkBuildBitwise for one evaluator; second says
// whether it carries second derivatives (Build) or must hold zeros there
// (BuildGrad).
func checkEvaluatorBitwise(t *testing.T, label string, e *Evaluator, second bool, a buildArgs, cnt *buildCheck) {
	t.Helper()
	ref := buildRef(a.psf, a.expP, a.devP, a.rho, a.ab, a.th, a.logScale, a.jac)
	if len(e.Gal) != len(ref) {
		t.Fatalf("%s: %d galaxy components, reference %d", label, len(e.Gal), len(ref))
	}
	same := func(what string, ci int, got, want float64, zeroSignFree bool) {
		t.Helper()
		cnt.entries++
		if math.Float64bits(got) == math.Float64bits(want) {
			return
		}
		if zeroSignFree && got == 0 && want == 0 {
			cnt.zeroSigns++
			return
		}
		t.Fatalf("%s: component %d %s = %v (%#x), reference %v (%#x)",
			label, ci, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	// hess compares a second derivative, or checks BuildGrad's is +0.
	hess := func(what string, ci int, got, want float64, zeroSignFree bool) {
		t.Helper()
		if !second {
			want, zeroSignFree = 0, false
		}
		same(what, ci, got, want, zeroSignFree)
	}
	g10, g11 := -a.jac.A11, -a.jac.A12
	g20, g21 := -a.jac.A21, -a.jac.A22
	for ci := range ref {
		c, r := &e.Gal[ci], &ref[ci]
		same("K", ci, c.K.V, r.K.V, false)
		if r.K.V == 0 {
			cnt.zeroK++
			continue
		}
		for k := 2; k < dual.N; k++ {
			same("K.G", ci, c.K.G[k-2], r.K.G[k], k == 2)
			for l := 2; l <= k; l++ {
				hess("K.H", ci, c.K.H[dual.Idx(k-2, l-2)], r.K.H[dual.Idx(k, l)], l == 2)
			}
		}
		for qi, q := range [3]struct {
			got  *dual.Tail3
			want *dual.Dual
		}{{&c.Q11, &r.Q11}, {&c.Q12, &r.Q12}, {&c.Q22, &r.Q22}} {
			name := [3]string{"Q11", "Q12", "Q22"}[qi]
			same(name, ci, q.got.V, q.want.V, false)
			for k := 3; k < dual.N; k++ {
				same(name+".G", ci, q.got.G[k-3], q.want.G[k], false)
				for l := 3; l <= k; l++ {
					hess(name+".H", ci, q.got.H[dual.Idx(k-3, l-3)], q.want.H[dual.Idx(k, l)], false)
				}
			}
		}
		same("MuX", ci, c.MuX, r.MuX, false)
		same("MuY", ci, c.MuY, r.MuY, false)
		var row rowConst
		row.set(r.Q11.V, r.Q12.V, r.Q22.V)
		for i, p := range [...][2]float64{
			{c.Row.q11, row.q11}, {c.Row.q12, row.q12}, {c.Row.q22, row.q22},
			{c.Row.q12OverQ11, row.q12OverQ11}, {c.Row.qminCoef, row.qminCoef}, {c.Row.invQ11, row.invQ11},
			{c.Row.s, row.s}, {c.Row.s4, row.s4}, {c.Row.t, row.t}, {c.Row.v, row.v},
		} {
			same("Row["+string(rune('0'+i))+"]", ci, p[0], p[1], false)
		}

		// The lane table, both lanes of every entry Build writes. Q's
		// coordinate-2 entries are the constant +0 (the reference's are
		// zeros of either sign: Q does not depend on the profile mix).
		want := map[int]float64{
			gtMuX: r.MuX, gtQ11: r.Q11.V, gtQ12: r.Q12.V,
			gtG10: g10, gtG20: g20, gtG11: g11, gtG21: g21,
			gtKV: r.K.V, gtHalfKV: 0.5 * r.K.V, gtHalf: 0.5,
			gtSA: 0, gtSB: 0, gtSC: 0,
		}
		for k := 2; k < dual.N; k++ {
			want[gtKG+k-2] = r.K.G[k]
		}
		for k := 3; k < dual.N; k++ {
			want[gtSA+k-2] = r.Q11.G[k]
			want[gtSB+k-2] = 2 * r.Q12.G[k]
		}
		if r.Q11.G[2] != 0 || r.Q12.G[2] != 0 || r.Q22.G[2] != 0 {
			t.Fatalf("%s: component %d: reference Q has a profile-mix derivative", label, ci)
		}
		tab := e.galTab[ci*2*galTabLen : (ci+1)*2*galTabLen]
		for i, v := range want {
			same("table", ci, tab[2*i], v, i == gtKG)
			same("table", ci, tab[2*i+1], v, i == gtKG)
		}
	}
	for ci := range e.Star {
		c, p := &e.Star[ci], a.psf[ci]
		det := p.Sxx*p.Syy - p.Sxy*p.Sxy
		inv := 1 / det
		same("star K", ci, c.K.V, p.Weight/(2*math.Pi*math.Sqrt(det)), false)
		same("star Q11", ci, c.Q11.V, p.Syy*inv, false)
		same("star Q12", ci, c.Q12.V, -p.Sxy*inv, false)
		same("star Q22", ci, c.Q22.V, p.Sxx*inv, false)
	}
}

// TestBuildBitwise compares the subspace build with the dual.Dual reference
// bit for bit over moderate and extreme logits (at +40 the profile mix and
// the axis ratio round to 1 in float64), the angles 0 and π/2, log-scales
// below elbo's clampScale floor (1e-8), a diagonal, a sheared and a flipped
// Jacobian, and PSFs of one to three components with non-zero means.
func TestBuildBitwise(t *testing.T) {
	const pix = 1.1e-4
	jacs := []Jac2{
		{A11: 1 / pix, A22: 1 / pix},
		{A11: 1 / pix, A12: 0.6 / pix, A21: -0.35 / pix, A22: 0.8 / pix},
		{A11: -0.9 / pix, A12: 0.2 / pix, A21: 0.3 / pix, A22: 1.2 / pix},
	}
	r := rng.New(37)
	var cnt buildCheck
	psfs := map[int]bool{}
	for _, rho := range []float64{-40, -3, 0, 0.7, 40} {
		for _, ab := range []float64{-40, -1, 0.5, 40} {
			for _, th := range []float64{0, math.Pi / 2, 1.1, -2.5} {
				for _, scale := range []float64{1e-4, 3e-9, 2e-12} {
					for _, jac := range jacs {
						a := randomBuildArgs(r, 1)
						a.rho, a.ab, a.th, a.logScale, a.jac = rho, ab, th, math.Log(scale), jac
						psfs[len(a.psf)] = true
						checkBuildBitwise(t, "grid", a, &cnt)
					}
				}
			}
		}
	}
	if !psfs[1] || !psfs[2] || !psfs[3] {
		t.Fatalf("PSF sizes drawn: %v, want 1, 2 and 3", psfs)
	}
	if cnt.zeroK == 0 {
		t.Fatal("no component with K = 0 (saturated profile mix) was drawn")
	}
	t.Logf("%d entries equal bit for bit, %d zero-signed K entries, %d zero-weight components",
		cnt.entries-cnt.zeroSigns, cnt.zeroSigns, cnt.zeroK)
}

// FuzzBuildBitwise drives the same comparison from fuzzer-chosen shape
// parameters, Jacobian shear and build-input draws.
func FuzzBuildBitwise(f *testing.F) {
	f.Add(uint64(1), 0.0, 0.0, 0.0, -9.2, 0.0, 0.0)
	f.Add(uint64(2), 40.0, -40.0, math.Pi/2, -19.6, 0.6, -0.35)
	f.Add(uint64(3), -40.0, 40.0, 0.0, -27.0, -0.2, 0.9)
	f.Add(uint64(4), -800.0, 3.0, -2.5, -8.0, 0.1, 0.1)
	f.Fuzz(func(t *testing.T, seed uint64, rho, ab, th, logScale, shear12, shear21 float64) {
		if !(math.Abs(rho) <= 1e3 && math.Abs(ab) <= 1e3 && math.Abs(th) <= 1e3 &&
			logScale >= -40 && logScale <= -2 && math.Abs(shear12) <= 2 && math.Abs(shear21) <= 2) {
			return
		}
		a := randomBuildArgs(rng.New(seed), 1)
		a.rho, a.ab, a.th, a.logScale = rho, ab, th, logScale
		a.jac.A12, a.jac.A21 = shear12*a.jac.A11, shear21*a.jac.A22
		var cnt buildCheck
		checkBuildBitwise(t, "fuzz", a, &cnt)
	})
}
