package elbo

import (
	"math"
	"testing"

	"celeste/internal/ad"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

// --- Reference implementation of the full ELBO in a ParamDim-dim AD space ---

// refSpatial evaluates the star and galaxy spatial densities at pixel
// offsets (dx, dy) from the source's *anchor* pixel position, differentiable
// in all ParamDim coordinates (only 0..5 are touched). The position enters through
// d = (dx, dy) − J·(u − u0).
func refSpatial(s *ad.Space, xs []*ad.Num, anchor geom.Pt2, p *Patch,
	dx, dy float64) (star, gal *ad.Num) {

	jac := model.JacFromWCS(p.WCS)
	du1 := ad.AddConst(xs[model.ParamRA], -anchor.RA)
	du2 := ad.AddConst(xs[model.ParamDec], -anchor.Dec)
	ju1 := ad.Add(ad.Scale(jac.A11, du1), ad.Scale(jac.A12, du2))
	ju2 := ad.Add(ad.Scale(jac.A21, du1), ad.Scale(jac.A22, du2))
	d1base := ad.Sub(s.Const(dx), ju1)
	d2base := ad.Sub(s.Const(dy), ju2)

	comp := func(s11, s12, s22, wt *ad.Num, mux, muy float64) *ad.Num {
		det := ad.Sub(ad.Mul(s11, s22), ad.Sqr(s12))
		d1 := ad.AddConst(d1base, -mux)
		d2 := ad.AddConst(d2base, -muy)
		q := ad.Div(ad.Add(ad.Sub(ad.Mul(s22, ad.Sqr(d1)),
			ad.Scale(2, ad.Mul(s12, ad.Mul(d1, d2)))),
			ad.Mul(s11, ad.Sqr(d2))), det)
		norm := ad.Div(wt, ad.Scale(2*math.Pi, ad.Sqrt(det)))
		return ad.Mul(norm, ad.Exp(ad.Scale(-0.5, q)))
	}

	for _, pk := range p.PSF {
		c := comp(s.Const(pk.Sxx), s.Const(pk.Sxy), s.Const(pk.Syy),
			s.Const(pk.Weight), pk.MuX, pk.MuY)
		if star == nil {
			star = c
		} else {
			star = ad.Add(star, c)
		}
	}

	rho := ad.Logistic(xs[model.ParamGalDevLogit])
	abr := ad.Logistic(xs[model.ParamGalABLogit])
	sigma := ad.Exp(xs[model.ParamGalLogScale])
	a := ad.Sqr(sigma)
	b := ad.Mul(a, ad.Sqr(abr))
	sn := ad.Sin(xs[model.ParamGalAngle])
	cs := ad.Cos(xs[model.ParamGalAngle])
	w11 := ad.Add(ad.Mul(a, ad.Sqr(cs)), ad.Mul(b, ad.Sqr(sn)))
	w12 := ad.Mul(ad.Sub(a, b), ad.Mul(sn, cs))
	w22 := ad.Add(ad.Mul(a, ad.Sqr(sn)), ad.Mul(b, ad.Sqr(cs)))
	t11 := ad.Add(ad.Scale(jac.A11, w11), ad.Scale(jac.A12, w12))
	t12 := ad.Add(ad.Scale(jac.A11, w12), ad.Scale(jac.A12, w22))
	t21 := ad.Add(ad.Scale(jac.A21, w11), ad.Scale(jac.A22, w12))
	t22 := ad.Add(ad.Scale(jac.A21, w12), ad.Scale(jac.A22, w22))
	p11 := ad.Add(ad.Scale(jac.A11, t11), ad.Scale(jac.A12, t12))
	p12 := ad.Add(ad.Scale(jac.A21, t11), ad.Scale(jac.A22, t12))
	p22 := ad.Add(ad.Scale(jac.A21, t21), ad.Scale(jac.A22, t22))

	oneMinusRho := ad.AddConst(ad.Neg(rho), 1)
	addProf := func(prof []mog.ProfComp, mix *ad.Num) {
		for _, pc := range prof {
			for _, pk := range p.PSF {
				s11 := ad.AddConst(ad.Scale(pc.Var, p11), pk.Sxx)
				s12 := ad.AddConst(ad.Scale(pc.Var, p12), pk.Sxy)
				s22 := ad.AddConst(ad.Scale(pc.Var, p22), pk.Syy)
				wt := ad.Scale(pc.Weight*pk.Weight, mix)
				c := comp(s11, s12, s22, wt, pk.MuX, pk.MuY)
				if gal == nil {
					gal = c
				} else {
					gal = ad.Add(gal, c)
				}
			}
		}
	}
	addProf(expProf, oneMinusRho)
	addProf(devProf, rho)
	return star, gal
}

// refFluxMoments returns the type weights χ = softmax(0, a) over the type
// log-odds a and each type's per-band flux moments E[ℓ_b], E[ℓ_b²] as AD
// graphs over xs (the ParamDim parameters): the oracle of
// computeBrightMoments.
func refFluxMoments(xs []*ad.Num) (chi []*ad.Num, el, el2 [model.NumTypes][model.NumBands]*ad.Num) {
	for _, l := range refLogChi(xs) {
		chi = append(chi, ad.Exp(l))
	}
	for t := 0; t < model.NumTypes; t++ {
		r1 := xs[model.ParamR1+t]
		r2 := ad.Exp(xs[model.ParamR2+t])
		for b := 0; b < model.NumBands; b++ {
			m := r1
			v := r2
			for i := 0; i < model.NumColors; i++ {
				beta := model.BandCoeff[b][i]
				if beta == 0 {
					continue
				}
				m = ad.Add(m, ad.Scale(beta, xs[model.ParamC1+4*t+i]))
				v = ad.Add(v, ad.Scale(beta*beta, ad.Exp(xs[model.ParamC2+4*t+i])))
			}
			el[t][b] = ad.Exp(ad.Add(m, ad.Scale(0.5, v)))
			el2[t][b] = ad.Exp(ad.Add(ad.Scale(2, m), ad.Scale(2, v)))
		}
	}
	return chi, el, el2
}

// refLogChi returns log χ = log softmax(0, a) over the type log-odds
// a = √2·u of the stored coordinate u (model.LogOddsScale), in type order:
// the oracle's type weights come from the general softmax graph, independent
// of the closed forms of typeWeights and typeKL.
func refLogChi(xs []*ad.Num) []*ad.Num {
	a := ad.Scale(model.LogOddsScale, xs[model.ParamTypeLogOdds])
	return refLogSoftmax([]*ad.Num{ad.NewSpace(a.Dim()).Const(0), a})
}

// refLogSoftmax returns log softmax(xs) as x_j − x_m − log1p(Σ_{k≠m}
// exp(x_k − x_m)) around the largest entry x_m: finite where a softmax entry
// underflows to 0, and with no 1 − q cancellation in its derivatives, so it
// stays an accurate oracle at large logit gaps.
func refLogSoftmax(xs []*ad.Num) []*ad.Num {
	m := 0
	for i, x := range xs {
		if x.Val > xs[m].Val {
			m = i
		}
	}
	var sum *ad.Num
	for i, x := range xs {
		if i == m {
			continue
		}
		e := ad.Exp(ad.Sub(x, xs[m]))
		if sum == nil {
			sum = e
		} else {
			sum = ad.Add(sum, e)
		}
	}
	l1p := ad.Log1p(sum)
	out := make([]*ad.Num, len(xs))
	for i, x := range xs {
		if i == m {
			out[i] = ad.Neg(l1p)
		} else {
			out[i] = ad.Sub(ad.Sub(x, xs[m]), l1p)
		}
	}
	return out
}

// refKL returns the total KL from the priors as an AD graph over xs (the
// ParamDim parameters): the oracle of computeKL, term by term as its doc states it.
func refKL(xs []*ad.Num, priors *model.Priors) *ad.Num {
	var total *ad.Num
	add := func(t *ad.Num) {
		if total == nil {
			total = t
		} else {
			total = ad.Add(total, t)
		}
	}
	normalKL := func(x, logVar *ad.Num, m, v float64) *ad.Num {
		d := ad.AddConst(x, -m)
		vx := ad.Exp(logVar)
		return ad.Scale(0.5, ad.Add(
			ad.Scale(1/v, ad.Add(vx, ad.Sqr(d))),
			ad.AddConst(ad.Neg(ad.Log(ad.Scale(1/v, vx))), -1)))
	}

	logChi := refLogChi(xs)
	priorChi := [2]float64{1 - priors.ProbGal, priors.ProbGal}
	for t := 0; t < model.NumTypes; t++ {
		add(ad.Mul(ad.Exp(logChi[t]), ad.AddConst(logChi[t], -logc(priorChi[t]))))
	}
	for t := 0; t < model.NumTypes; t++ {
		klR := normalKL(xs[model.ParamR1+t], xs[model.ParamR2+t],
			priors.R1Mean[t], priors.R1SD[t]*priors.R1SD[t])

		// The color term with the responsibilities profiled out:
		// −log Σ_d π_d·exp(−KL_c(t,d)) = log softmax(z)_m − z_m at the
		// largest z_m, which keeps refLogSoftmax's accuracy where the other
		// components underflow.
		z := make([]*ad.Num, model.NumPriorComps)
		for dd := range z {
			var comp *ad.Num
			for i := 0; i < model.NumColors; i++ {
				c := normalKL(xs[model.ParamC1+4*t+i], xs[model.ParamC2+4*t+i],
					priors.CMean[t][dd][i], priors.CVar[t][dd][i])
				if comp == nil {
					comp = c
				} else {
					comp = ad.Add(comp, c)
				}
			}
			z[dd] = ad.AddConst(ad.Neg(comp), logc(priors.KWeight[t][dd]))
		}
		m := 0
		for dd, zd := range z {
			if zd.Val > z[m].Val {
				m = dd
			}
		}
		g := ad.Sub(refLogSoftmax(z)[m], z[m])
		add(ad.Mul(ad.AddConst(ad.Exp(logChi[t]), KLWeightFloor), ad.Add(klR, g)))
	}
	return total
}

// refELBO is the oracle: the entire objective in one ParamDim-dim AD pass.
func refELBO(pb *Problem, theta *model.Params) *ad.Num {
	s := ad.NewSpace(model.ParamDim)
	xs := s.Vars(theta[:])
	chi, el, el2 := refFluxMoments(xs)

	anchor := geom.Pt2{RA: theta[model.ParamRA], Dec: theta[model.ParamDec]}
	var total *ad.Num
	addTerm := func(t *ad.Num) {
		if total == nil {
			total = t
		} else {
			total = ad.Add(total, t)
		}
	}

	for _, p := range pb.Patches {
		srcX, srcY := p.WCS.WorldToPix(anchor)
		b := p.Band
		av := ad.Scale(p.Iota, ad.Mul(chi[0], el[model.Star][b]))
		bv := ad.Scale(p.Iota, ad.Mul(chi[1], el[model.Gal][b]))
		cv := ad.Scale(p.Iota*p.Iota, ad.Mul(chi[0], el2[model.Star][b]))
		dv := ad.Scale(p.Iota*p.Iota, ad.Mul(chi[1], el2[model.Gal][b]))
		k := 0
		for y := p.Rect.Y0; y < p.Rect.Y1; y++ {
			for x := p.Rect.X0; x < p.Rect.X1; x++ {
				obs, bg, vbg := p.Obs[k], p.Bg[k], p.VBg[k]
				k++
				gs, gg := refSpatial(s, xs, anchor, p, float64(x)-srcX, float64(y)-srcY)
				m := ad.Add(ad.Mul(av, gs), ad.Mul(bv, gg))
				e2 := ad.Add(ad.Mul(cv, ad.Sqr(gs)), ad.Mul(dv, ad.Sqr(gg)))
				ef := ad.AddConst(m, bg)
				vf := ad.AddConst(ad.Sub(e2, ad.Sqr(m)), vbg)
				pix := ad.Sub(ad.Scale(obs, ad.Sub(ad.Log(ef),
					ad.Div(vf, ad.Scale(2, ad.Sqr(ef))))), ef)
				addTerm(pix)
			}
		}
	}

	addTerm(ad.Neg(refKL(xs, pb.Priors)))

	// Position anchor.
	if pb.PosPenalty > 0 {
		dra := ad.AddConst(xs[model.ParamRA], -pb.PosAnchor.RA)
		ddec := ad.AddConst(xs[model.ParamDec], -pb.PosAnchor.Dec)
		addTerm(ad.Scale(-0.5*pb.PosPenalty, ad.Add(ad.Sqr(dra), ad.Sqr(ddec))))
	}
	return total
}

// --- Test fixtures ---

// addNeighbor folds c into a hand-assembled problem through Builder.AddNeighbor
// (the builder only needs to see the problem's patches).
func addNeighbor(pb *Problem, c *model.Constrained) {
	(&Builder{pb: *pb}).AddNeighbor(c)
}

func testPatchProblem(seed uint64) (*Problem, *model.Params) {
	r := rng.New(seed)
	priors := model.DefaultPriors()

	pixScale := 1.1e-4
	wcs := geom.NewSimpleWCS(0, 0, pixScale)
	psfMix := mog.Mixture{
		{Weight: 0.75, MuX: 0.1, MuY: -0.1, Sxx: 1.5, Sxy: 0.2, Syy: 1.2},
		{Weight: 0.25, Sxx: 5, Sxy: -0.3, Syy: 4},
	}

	// True source: a galaxy at the patch center.
	pos := geom.Pt2{RA: 8 * pixScale, Dec: 8 * pixScale}
	truth := model.CatalogEntry{
		ID: 0, Pos: pos, ProbGal: 1,
		Flux:       [model.NumBands]float64{2, 4, 6, 7, 8},
		GalDevFrac: 0.4, GalAxisRatio: 0.7, GalAngle: 0.8, GalScale: 2.5 * pixScale,
	}

	// Two small patches in different bands with different calibrations.
	pb := &Problem{Priors: &priors, PosPenalty: 1 / (2e-4 * 2e-4), PosAnchor: pos}
	for _, spec := range []struct {
		band int
		iota float64
		sky  float64
	}{{2, 100, 80}, {3, 90, 70}} {
		rect := geom.PixRect{X0: 3, Y0: 3, X1: 13, Y1: 13}
		n := rect.Width() * rect.Height()
		p := &Patch{
			Band: spec.band, Rect: rect, WCS: wcs, PSF: psfMix, Iota: spec.iota,
			Obs: make([]float64, n), Bg: make([]float64, n), VBg: make([]float64, n),
		}
		// Render expected counts and draw Poisson pixels.
		buf := make([]float64, 16*16)
		for i := range buf {
			buf[i] = spec.sky
		}
		model.AddExpectedCounts(buf, 16, 16, wcs, psfMix, &truth, spec.band, spec.iota, 6)
		k := 0
		for y := rect.Y0; y < rect.Y1; y++ {
			for x := rect.X0; x < rect.X1; x++ {
				p.Obs[k] = float64(r.Poisson(buf[y*16+x]))
				p.Bg[k] = spec.sky
				p.VBg[k] = 0.5 * spec.sky // emulate neighbor variance
				k++
			}
		}
		pb.Patches = append(pb.Patches, p)
	}

	theta := model.InitialParams(&truth)
	// Perturb so derivatives are generic (not at a symmetric point).
	pr := rng.New(seed + 1)
	for i := range theta {
		scale := 0.05
		if i < 2 {
			scale = 0.3 * pixScale
		}
		theta[i] += pr.Normal() * scale
	}
	return pb, &theta
}

func TestEvalMatchesADOracle(t *testing.T) {
	pb, theta := testPatchProblem(31)
	got := pb.EvalInto(theta, NewScratch())
	want := refELBO(pb, theta)

	if math.Abs(got.Value-want.Val) > 1e-8*(1+math.Abs(want.Val)) {
		t.Errorf("value = %.12g, want %.12g", got.Value, want.Val)
	}
	for i := 0; i < model.ParamDim; i++ {
		if math.Abs(got.Grad[i]-want.Grad[i]) > 1e-7*(1+math.Abs(want.Grad[i])) {
			t.Errorf("grad[%d] = %.10g, want %.10g", i, got.Grad[i], want.Grad[i])
		}
	}
	for i := 0; i < model.ParamDim; i++ {
		for j := 0; j <= i; j++ {
			w := want.HessAt(i, j)
			g := got.Hess.At(i, j)
			if math.Abs(g-w) > 1e-6*(1+math.Abs(w)) {
				t.Errorf("hess[%d,%d] = %.10g, want %.10g", i, j, g, w)
			}
		}
	}
}

func TestHessianSymmetric(t *testing.T) {
	pb, theta := testPatchProblem(32)
	res := pb.EvalInto(theta, NewScratch())
	for i := 0; i < model.ParamDim; i++ {
		for j := 0; j < i; j++ {
			if res.Hess.At(i, j) != res.Hess.At(j, i) {
				t.Fatalf("hess asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestEvalValueWithMatchesEvalInto(t *testing.T) {
	pb, theta := testPatchProblem(33)
	full := pb.EvalInto(theta, NewScratch())
	v, visits := pb.EvalValueWith(theta, NewScratch())
	if math.Abs(v-full.Value) > 1e-8*(1+math.Abs(full.Value)) {
		t.Errorf("EvalValueWith = %.12g, EvalInto = %.12g", v, full.Value)
	}
	if visits != full.Visits {
		t.Errorf("visits: %d vs %d", visits, full.Visits)
	}
	if full.Visits != 200 { // two 10x10 patches
		t.Errorf("visits = %d, want 200", full.Visits)
	}
}

func TestGradientAgainstFiniteDifferences(t *testing.T) {
	pb, theta := testPatchProblem(34)
	res := pb.EvalInto(theta, NewScratch())
	f := func(x []float64) float64 {
		var p model.Params
		copy(p[:], x)
		v, _ := pb.EvalValueWith(&p, NewScratch())
		return v
	}
	// Check a representative subset of coordinates with per-coordinate step
	// sizes (position coordinates live on a much smaller scale).
	for _, i := range []int{0, 1, 2, 4, 5, 6, 8, 10, 13, 17, 21, 25} {
		h := 1e-6
		if i < 2 {
			h = 1e-9
		}
		xp := append([]float64(nil), theta[:]...)
		xp[i] += h
		fp := f(xp)
		xp[i] -= 2 * h
		fm := f(xp)
		fd := (fp - fm) / (2 * h)
		if math.Abs(res.Grad[i]-fd) > 1e-4*(1+math.Abs(fd)) {
			t.Errorf("grad[%d] = %v, FD %v", i, res.Grad[i], fd)
		}
	}
}

func TestNeighborContributionRaisesBackground(t *testing.T) {
	pb, theta := testPatchProblem(35)
	before := append([]float64(nil), pb.Patches[0].Bg...)

	// A bright star neighbor two pixels away.
	nb := model.CatalogEntry{
		Pos:  geom.Pt2{RA: 10 * 1.1e-4, Dec: 8 * 1.1e-4},
		Flux: [model.NumBands]float64{30, 30, 30, 30, 30},
	}
	np := model.InitialParams(&nb)
	nc := np.Constrained()
	addNeighbor(pb, &nc)
	var raised int
	for k := range pb.Patches[0].Bg {
		if pb.Patches[0].Bg[k] > before[k]+1e-9 {
			raised++
		}
	}
	if raised < 10 {
		t.Errorf("only %d pixels affected by neighbor", raised)
	}
	// Variance must also increase somewhere.
	var vb float64
	for _, v := range pb.Patches[0].VBg {
		vb += v
	}
	if vb <= 0.5*80*float64(len(pb.Patches[0].VBg)) {
		t.Errorf("neighbor variance missing: %v", vb)
	}
	_ = theta
}

func TestFarNeighborIsNoop(t *testing.T) {
	pb, _ := testPatchProblem(36)
	before := append([]float64(nil), pb.Patches[0].Bg...)
	nb := model.CatalogEntry{
		Pos:  geom.Pt2{RA: 1.0, Dec: 1.0}, // degrees away
		Flux: [model.NumBands]float64{1000, 1000, 1000, 1000, 1000},
	}
	np := model.InitialParams(&nb)
	nc := np.Constrained()
	addNeighbor(pb, &nc)
	for k := range pb.Patches[0].Bg {
		if pb.Patches[0].Bg[k] != before[k] {
			t.Fatalf("far neighbor changed background at %d", k)
		}
	}
}

func TestELBOIncreasesTowardTruth(t *testing.T) {
	// Value at the truth-initialized parameters should beat a badly
	// perturbed starting point: basic sanity that the objective ranks
	// solutions sensibly.
	pb, _ := testPatchProblem(37)
	truthTheta := model.InitialParams(&model.CatalogEntry{
		Pos: pb.PosAnchor, ProbGal: 1,
		Flux:       [model.NumBands]float64{2, 4, 6, 7, 8},
		GalDevFrac: 0.4, GalAxisRatio: 0.7, GalAngle: 0.8, GalScale: 2.5 * 1.1e-4,
	})
	vGood, _ := pb.EvalValueWith(&truthTheta, NewScratch())
	bad := truthTheta
	bad[model.ParamR1+model.Gal] -= 2 // 7x too faint
	vBad, _ := pb.EvalValueWith(&bad, NewScratch())
	if vGood <= vBad {
		t.Errorf("ELBO does not prefer truth: good %v <= bad %v", vGood, vBad)
	}
}

func TestBuilderFromSurveyImages(t *testing.T) {
	// Smoke-test the survey-facing constructor: two 16x16 frames, a source
	// at pixel (8.5, 8.5), a 4-pixel window.
	priors := model.DefaultPriors()
	pixScale := 1.1e-4
	var images []*survey.Image
	for band := 2; band <= 3; band++ {
		im := &survey.Image{
			Band: band, W: 16, H: 16, WCS: geom.NewSimpleWCS(0, 0, pixScale),
			PSF:  mog.Mixture{{Weight: 1, Sxx: 1.5, Syy: 1.5}},
			Iota: 100, Sky: 80, Pixels: make([]float64, 16*16),
		}
		for i := range im.Pixels {
			im.Pixels[i] = float64(i)
		}
		images = append(images, im)
	}
	pb := new(Builder).Build(&priors, images, geom.Pt2{RA: 8.5 * pixScale, Dec: 8.5 * pixScale}, 4)
	if len(pb.Patches) != 2 {
		t.Fatalf("patches = %d", len(pb.Patches))
	}
	for _, p := range pb.Patches {
		if n := p.Rect.Width() * p.Rect.Height(); n != 100 {
			t.Errorf("patch pixels = %d", n)
		}
		if p.Obs[0] != images[0].At(p.Rect.X0, p.Rect.Y0) || p.Bg[0] != 80 || p.VBg[0] != 0 {
			t.Errorf("patch pixel 0 = (%v, %v, %v)", p.Obs[0], p.Bg[0], p.VBg[0])
		}
	}
}

func BenchmarkEvalFull(b *testing.B) {
	pb, theta := testPatchProblem(40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pb.EvalInto(theta, NewScratch())
	}
}

func BenchmarkEvalValue(b *testing.B) {
	pb, theta := testPatchProblem(41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = pb.EvalValueWith(theta, NewScratch())
	}
}

func TestVisitCountScalesWithRadius(t *testing.T) {
	pb8, theta := testPatchProblem(52)
	_ = pb8
	// Rebuild problems at two radii and compare visit counts: FLOP
	// accounting is proportional to active pixels (Section VI-B).
	priors := model.DefaultPriors()
	_ = priors
	small := &Problem{Priors: pb8.Priors, Patches: pb8.Patches[:1]}
	full := &Problem{Priors: pb8.Priors, Patches: pb8.Patches}
	_, vs := small.EvalValueWith(theta, NewScratch())
	_, vf := full.EvalValueWith(theta, NewScratch())
	if vf != 2*vs {
		t.Errorf("visits: %d vs %d (want exactly 2x for two equal patches)", vf, vs)
	}
}
