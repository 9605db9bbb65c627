package mog

import (
	"math"
	"testing"

	"celeste/internal/ad"
	"celeste/internal/dual"
	"celeste/internal/rng"
)

func gridSum(m Mixture, half int) float64 {
	var s float64
	for y := -half; y <= half; y++ {
		for x := -half; x <= half; x++ {
			s += m.Eval(float64(x), float64(y))
		}
	}
	return s
}

func testPSF() Mixture {
	return Mixture{
		{Weight: 0.7, MuX: 0.1, MuY: -0.2, Sxx: 1.4, Sxy: 0.2, Syy: 1.1},
		{Weight: 0.3, MuX: -0.3, MuY: 0.2, Sxx: 4.0, Sxy: -0.5, Syy: 3.5},
	}
}

func testProfiles() (exp, dev []ProfComp) {
	exp = []ProfComp{{Weight: 0.6, Var: 0.5}, {Weight: 0.4, Var: 1.5}}
	dev = []ProfComp{{Weight: 0.5, Var: 0.3}, {Weight: 0.3, Var: 2.0}, {Weight: 0.2, Var: 6.0}}
	return
}

func TestComponentIntegratesToWeight(t *testing.T) {
	c := Component{Weight: 2.5, MuX: 0.4, MuY: -0.7, Sxx: 2, Sxy: 0.3, Syy: 1.5}
	if got := gridSum(Mixture{c}, 30); math.Abs(got-2.5) > 1e-6 {
		t.Errorf("integral = %v, want 2.5", got)
	}
}

func TestMixtureEvalAndWeight(t *testing.T) {
	m := testPSF()
	if got := m.TotalWeight(); math.Abs(got-1) > 1e-12 {
		t.Errorf("TotalWeight = %v", got)
	}
	if got := gridSum(m, 40); math.Abs(got-1) > 1e-6 {
		t.Errorf("grid integral = %v, want 1", got)
	}
}

func TestShiftPreservesMass(t *testing.T) {
	m := testPSF().Shift(2, -3)
	if got := gridSum(m, 40); math.Abs(got-1) > 1e-6 {
		t.Errorf("shifted integral = %v", got)
	}
	// Peak moved: density at new center greater than at old.
	if m.Eval(2, -3) <= m.Eval(0, 0) {
		t.Error("shift did not move the mixture")
	}
}

func TestGalaxyMixtureAddsMoments(t *testing.T) {
	// Convolving with the PSF keeps its means, adds covariances and
	// multiplies weights, one component per (profile, PSF) pair.
	psf := Mixture{{Weight: 0.7, MuX: -0.5, MuY: 0.7, Sxx: 0.6, Sxy: -0.2, Syy: 1.1}}
	prof := []ProfComp{{Weight: 0.4, Var: 0.3}}
	c := GalaxyMixture(psf, prof, 1, 0, 2, Jac2{A11: 1, A22: 1})
	if len(c) != 1 {
		t.Fatalf("len = %d", len(c))
	}
	if math.Abs(c[0].MuX+0.5) > 1e-12 || math.Abs(c[0].MuY-0.7) > 1e-12 {
		t.Errorf("mean = (%v, %v)", c[0].MuX, c[0].MuY)
	}
	if math.Abs(c[0].Sxx-1.8) > 1e-12 || math.Abs(c[0].Sxy+0.2) > 1e-12 || math.Abs(c[0].Syy-2.3) > 1e-12 {
		t.Errorf("cov = (%v, %v, %v)", c[0].Sxx, c[0].Sxy, c[0].Syy)
	}
	if math.Abs(c.TotalWeight()-0.28) > 1e-12 {
		t.Errorf("weight = %v", c.TotalWeight())
	}
}

func TestGalaxyCovEigenstructure(t *testing.T) {
	// With angle 0, the covariance must be diagonal with sigma^2 and (sigma*ab)^2.
	w11, w12, w22 := GalaxyCov(0.5, 0, 2)
	if math.Abs(w11-4) > 1e-12 || math.Abs(w12) > 1e-12 || math.Abs(w22-1) > 1e-12 {
		t.Errorf("cov = (%v, %v, %v)", w11, w12, w22)
	}
	// Rotation by pi/2 swaps the axes.
	w11, w12, w22 = GalaxyCov(0.5, math.Pi/2, 2)
	if math.Abs(w11-1) > 1e-12 || math.Abs(w12) > 1e-10 || math.Abs(w22-4) > 1e-12 {
		t.Errorf("rotated cov = (%v, %v, %v)", w11, w12, w22)
	}
	// Trace and determinant are rotation invariant.
	for _, th := range []float64{0.3, 1.1, 2.9} {
		a11, a12, a22 := GalaxyCov(0.7, th, 1.5)
		tr := a11 + a22
		det := a11*a22 - a12*a12
		wantTr := 1.5*1.5 + 1.5*1.5*0.7*0.7
		wantDet := 1.5 * 1.5 * 1.5 * 1.5 * 0.7 * 0.7
		if math.Abs(tr-wantTr) > 1e-12 || math.Abs(det-wantDet) > 1e-12 {
			t.Errorf("angle %v: tr %v det %v", th, tr, det)
		}
	}
}

func TestJacobianCongruence(t *testing.T) {
	j := Jac2{A11: 2, A12: 0.5, A21: -0.3, A22: 1.5}
	p11, p12, p22 := j.Apply(1, 0, 1) // J I Jᵀ = J Jᵀ
	if math.Abs(p11-(4+0.25)) > 1e-12 {
		t.Errorf("p11 = %v", p11)
	}
	if math.Abs(p12-(2*-0.3+0.5*1.5)) > 1e-12 {
		t.Errorf("p12 = %v", p12)
	}
	if math.Abs(p22-(0.09+2.25)) > 1e-12 {
		t.Errorf("p22 = %v", p22)
	}
}

func TestGalaxyMixtureMass(t *testing.T) {
	exp, dev := testProfiles()
	_ = dev
	m := GalaxyMixture(testPSF(), exp, 0.6, 0.4, 3.0, Jac2{A11: 1, A22: 1})
	if math.Abs(m.TotalWeight()-1) > 1e-12 {
		t.Errorf("galaxy mixture weight = %v", m.TotalWeight())
	}
	if got := gridSum(m, 60); math.Abs(got-1) > 1e-4 {
		t.Errorf("galaxy grid integral = %v", got)
	}
}

// refEval computes the same galaxy+star density with the general ad package,
// serving as the oracle for the hand-tuned dual evaluator. Variables:
// 0,1 position offsets (world units), 2 rho logit, 3 ab logit, 4 angle,
// 5 log sigma.
func refEval(psf Mixture, expProf, devProf []ProfComp,
	theta [6]float64, jac Jac2, dx, dy float64, wantStar bool) *ad.Num {

	s := ad.NewSpace(6)
	xs := s.Vars(theta[:])

	// Effective pixel offsets: d = (dx, dy) - J*u (u = deviation vars 0,1).
	ju1 := ad.Add(ad.Scale(jac.A11, xs[0]), ad.Scale(jac.A12, xs[1]))
	ju2 := ad.Add(ad.Scale(jac.A21, xs[0]), ad.Scale(jac.A22, xs[1]))
	d1base := ad.Sub(ad.AddConst(ad.Scale(0, xs[0]), dx), ju1)
	d2base := ad.Sub(ad.AddConst(ad.Scale(0, xs[0]), dy), ju2)

	evalComp := func(s11, s12, s22, wt *ad.Num, mux, muy float64) *ad.Num {
		det := ad.Sub(ad.Mul(s11, s22), ad.Sqr(s12))
		d1 := ad.AddConst(d1base, -mux)
		d2 := ad.AddConst(d2base, -muy)
		q := ad.Div(
			ad.Add(ad.Sub(ad.Mul(s22, ad.Sqr(d1)),
				ad.Scale(2, ad.Mul(s12, ad.Mul(d1, d2)))),
				ad.Mul(s11, ad.Sqr(d2))), det)
		norm := ad.Div(wt, ad.Scale(2*math.Pi, ad.Sqrt(det)))
		return ad.Mul(norm, ad.Exp(ad.Scale(-0.5, q)))
	}

	if wantStar {
		var acc *ad.Num
		for _, pk := range psf {
			c := evalComp(s.Const(pk.Sxx), s.Const(pk.Sxy), s.Const(pk.Syy),
				s.Const(pk.Weight), pk.MuX, pk.MuY)
			if acc == nil {
				acc = c
			} else {
				acc = ad.Add(acc, c)
			}
		}
		return acc
	}

	rho := ad.Logistic(xs[2])
	ab := ad.Logistic(xs[3])
	sigma := ad.Exp(xs[5])
	a := ad.Sqr(sigma)
	b := ad.Mul(a, ad.Sqr(ab))
	sn := ad.Sin(xs[4])
	cs := ad.Cos(xs[4])
	w11 := ad.Add(ad.Mul(a, ad.Sqr(cs)), ad.Mul(b, ad.Sqr(sn)))
	w12 := ad.Mul(ad.Sub(a, b), ad.Mul(sn, cs))
	w22 := ad.Add(ad.Mul(a, ad.Sqr(sn)), ad.Mul(b, ad.Sqr(cs)))
	// P = J W Jᵀ.
	t11 := ad.Add(ad.Scale(jac.A11, w11), ad.Scale(jac.A12, w12))
	t12 := ad.Add(ad.Scale(jac.A11, w12), ad.Scale(jac.A12, w22))
	t21 := ad.Add(ad.Scale(jac.A21, w11), ad.Scale(jac.A22, w12))
	t22 := ad.Add(ad.Scale(jac.A21, w12), ad.Scale(jac.A22, w22))
	p11 := ad.Add(ad.Scale(jac.A11, t11), ad.Scale(jac.A12, t12))
	p12 := ad.Add(ad.Scale(jac.A21, t11), ad.Scale(jac.A22, t12))
	p22 := ad.Add(ad.Scale(jac.A21, t21), ad.Scale(jac.A22, t22))

	var acc *ad.Num
	addProf := func(prof []ProfComp, mix *ad.Num) {
		for _, pc := range prof {
			for _, pk := range psf {
				s11 := ad.AddConst(ad.Scale(pc.Var, p11), pk.Sxx)
				s12 := ad.AddConst(ad.Scale(pc.Var, p12), pk.Sxy)
				s22 := ad.AddConst(ad.Scale(pc.Var, p22), pk.Syy)
				wt := ad.Scale(pc.Weight*pk.Weight, mix)
				c := evalComp(s11, s12, s22, wt, pk.MuX, pk.MuY)
				if acc == nil {
					acc = c
				} else {
					acc = ad.Add(acc, c)
				}
			}
		}
	}
	oneMinusRho := ad.AddConst(ad.Neg(rho), 1)
	addProf(expProf, oneMinusRho)
	addProf(devProf, rho)
	return acc
}

func compareDualToAD(t *testing.T, name string, got dual.Dual, want *ad.Num, tol float64) {
	t.Helper()
	if math.Abs(got.V-want.Val) > tol*(1+math.Abs(want.Val)) {
		t.Errorf("%s: value %v, want %v", name, got.V, want.Val)
	}
	for i := 0; i < 6; i++ {
		if math.Abs(got.G[i]-want.Grad[i]) > tol*(1+math.Abs(want.Grad[i])) {
			t.Errorf("%s: grad[%d] = %v, want %v", name, i, got.G[i], want.Grad[i])
		}
	}
	for k := 0; k < dual.HessLen; k++ {
		if math.Abs(got.H[k]-want.Hess[k]) > tol*(1+math.Abs(want.Hess[k])) {
			t.Errorf("%s: hess[%d] = %v, want %v", name, k, got.H[k], want.Hess[k])
		}
	}
}

// starOnlyEvaluator builds an evaluator with no galaxy components.
func starOnlyEvaluator(psf Mixture, jac Jac2) *Evaluator {
	return &Evaluator{Star: starCompsInto(nil, psf), jac: jac}
}

func TestEvaluatorStarAgainstOracle(t *testing.T) {
	psf := testPSF()
	jac := Jac2{A11: 1 / 0.001, A22: 1 / 0.001} // world deg -> pixels at 3.6"/px
	e := starOnlyEvaluator(psf, jac)
	for _, off := range [][2]float64{{0, 0}, {1.3, -0.8}, {-2.1, 2.9}} {
		got := e.EvalStar(off[0], off[1])
		want := refEval(psf, nil, nil, [6]float64{}, jac, off[0], off[1], true)
		compareDualToAD(t, "star", got, want, 1e-9)
		// Value must agree with the plain mixture evaluation too.
		if v := psf.Eval(off[0], off[1]); math.Abs(got.V-v) > 1e-12 {
			t.Errorf("star value %v vs mixture %v", got.V, v)
		}
	}
}

func TestEvaluatorGalaxyAgainstOracle(t *testing.T) {
	psf := testPSF()
	expProf, devProf := testProfiles()
	r := rng.New(21)
	for trial := 0; trial < 10; trial++ {
		theta := [6]float64{
			0, 0,
			r.Normal(),                           // rho logit
			r.Normal(),                           // ab logit
			r.Float64() * math.Pi,                // angle
			math.Log(0.0005 + 0.002*r.Float64()), // log sigma (deg)
		}
		jac := Jac2{A11: 1 / 0.001, A12: 30 * (r.Float64() - 0.5), A21: 20 * (r.Float64() - 0.5), A22: 1 / 0.001}
		e := NewEvaluator(psf, expProf, devProf, theta[2], theta[3], theta[4], theta[5], jac)
		for _, off := range [][2]float64{{0, 0}, {2.5, 1.0}, {-1.0, -3.0}} {
			got := e.EvalGal(off[0], off[1])
			want := refEval(psf, expProf, devProf, theta, jac, off[0], off[1], false)
			compareDualToAD(t, "gal", got, want, 1e-8)
		}
	}
}

func TestEvaluatorGalaxyValueMatchesMixture(t *testing.T) {
	psf := testPSF()
	expProf, devProf := testProfiles()
	rhoLogit, abLogit, angle, logScale := 0.5, -0.3, 0.9, math.Log(0.002)
	jac := Jac2{A11: 1000, A22: 1000}
	e := NewEvaluator(psf, expProf, devProf, rhoLogit, abLogit, angle, logScale, jac)

	rho := 1 / (1 + math.Exp(-rhoLogit))
	ab := 1 / (1 + math.Exp(-abLogit))
	sigma := math.Exp(logScale)
	// Combined profile with mixing weights applied.
	var comb []ProfComp
	for _, pc := range expProf {
		comb = append(comb, ProfComp{Weight: (1 - rho) * pc.Weight, Var: pc.Var})
	}
	for _, pc := range devProf {
		comb = append(comb, ProfComp{Weight: rho * pc.Weight, Var: pc.Var})
	}
	m := GalaxyMixture(psf, comb, ab, angle, sigma, jac)
	for _, off := range [][2]float64{{0, 0}, {3, -2}, {-5, 1}} {
		got := e.EvalGal(off[0], off[1])
		want := m.Eval(off[0], off[1])
		if math.Abs(got.V-want) > 1e-12*(1+want) {
			t.Errorf("value at %v: %v vs mixture %v", off, got.V, want)
		}
	}
}

func TestBoundingRadius(t *testing.T) {
	psf := testPSF()
	comps := CompileInto(nil, psf)
	r := ValueBoundingRadiusPx(comps)
	// Largest PSF sigma^2 is ~4.06 (trace bound 7.5), so the radius is about
	// CullSigma*sqrt(7.5) ~ 19 px plus the mean offsets.
	if r < 8 || r > 30 {
		t.Errorf("bounding radius = %v", r)
	}
	// On and beyond the radius every component is past qCutoff, so the
	// truncated density is exactly zero there.
	for k := 0; k < 64; k++ {
		th := 2 * math.Pi * float64(k) / 64
		for _, f := range []float64{1, 1.5} {
			if v := EvalComps(comps, f*r*math.Cos(th), f*r*math.Sin(th)); v != 0 {
				t.Fatalf("density %v at %v x radius, angle %v", v, f, th)
			}
		}
	}
	if EvalComps(comps, 0, 0) <= 0 {
		t.Error("zero density at the center")
	}
}

func BenchmarkEvalGalPerPixel(b *testing.B) {
	psf := testPSF()
	expProf, devProf := testProfiles()
	e := NewEvaluator(psf, expProf, devProf, 0.3, -0.2, 1.0, math.Log(0.001),
		Jac2{A11: 1000, A22: 1000})
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		d := e.EvalGal(float64(i%7)-3, float64(i%5)-2)
		sink += d.V
	}
	_ = sink
}

func BenchmarkEvalStarPerPixel(b *testing.B) {
	psf := testPSF()
	e := starOnlyEvaluator(psf, Jac2{A11: 1000, A22: 1000})
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		d := e.EvalStar(float64(i%7)-3, float64(i%5)-2)
		sink += d.V
	}
	_ = sink
}
