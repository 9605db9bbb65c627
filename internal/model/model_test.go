package model

import (
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/mog"
	"celeste/internal/rng"
)

func TestParamRoundTrip(t *testing.T) {
	var c Constrained
	c.Pos = geom.Pt2{RA: 150.123, Dec: -0.456}
	c.GalDevFrac = 0.37
	c.GalAxisRatio = 0.81
	c.GalAngle = 1.1
	c.GalScale = 5e-4
	c.ProbGal = 0.73
	for tt := 0; tt < NumTypes; tt++ {
		c.R1[tt] = 1.5 + float64(tt)
		c.R2[tt] = 0.3
		for i := 0; i < NumColors; i++ {
			c.C1[tt][i] = 0.2*float64(i) - 0.1
			c.C2[tt][i] = 0.15 + 0.01*float64(i)
		}
	}
	p := FromConstrained(c)
	got := p.Constrained()
	if math.Abs(got.Pos.RA-c.Pos.RA) > 1e-12 || math.Abs(got.Pos.Dec-c.Pos.Dec) > 1e-12 {
		t.Errorf("pos: %v vs %v", got.Pos, c.Pos)
	}
	approx := func(name string, a, b float64) {
		t.Helper()
		if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
			t.Errorf("%s: %v vs %v", name, a, b)
		}
	}
	approx("devfrac", got.GalDevFrac, c.GalDevFrac)
	approx("abratio", got.GalAxisRatio, c.GalAxisRatio)
	approx("angle", got.GalAngle, c.GalAngle)
	approx("scale", got.GalScale, c.GalScale)
	approx("probgal", got.ProbGal, c.ProbGal)
	for tt := 0; tt < NumTypes; tt++ {
		approx("r1", got.R1[tt], c.R1[tt])
		approx("r2", got.R2[tt], c.R2[tt])
		for i := 0; i < NumColors; i++ {
			approx("c1", got.C1[tt][i], c.C1[tt][i])
			approx("c2", got.C2[tt][i], c.C2[tt][i])
		}
	}
}

func TestParamLayoutCoversParamDim(t *testing.T) {
	// Every named parameter index must be claimed exactly once and together
	// they must cover exactly [0, ParamDim).
	var uses [ParamDim]int
	claim := func(i int) {
		t.Helper()
		if i < 0 || i >= ParamDim {
			t.Fatalf("index %d outside [0,%d)", i, ParamDim)
		}
		uses[i]++
	}
	for _, i := range []int{ParamRA, ParamDec, ParamGalDevLogit, ParamGalABLogit,
		ParamGalAngle, ParamGalLogScale, ParamTypeLogOdds} {
		claim(i)
	}
	for tt := 0; tt < NumTypes; tt++ {
		claim(ParamR1 + tt)
		claim(ParamR2 + tt)
		for i := 0; i < NumColors; i++ {
			claim(ParamC1 + NumColors*tt + i)
			claim(ParamC2 + NumColors*tt + i)
		}
	}
	for i, n := range uses {
		if n != 1 {
			t.Errorf("index %d claimed %d times, want once", i, n)
		}
	}
}

func TestBandCoeff(t *testing.T) {
	// Reference band has zero coefficients.
	for i := 0; i < NumColors; i++ {
		if BandCoeff[RefBand][i] != 0 {
			t.Fatalf("ref band coeff %d = %v", i, BandCoeff[RefBand][i])
		}
	}
	// Band 4 (z) accumulates colors 2 and 3; band 0 (u) subtracts colors 0,1.
	want4 := [NumColors]float64{0, 0, 1, 1}
	want0 := [NumColors]float64{-1, -1, 0, 0}
	if BandCoeff[4] != want4 {
		t.Errorf("band 4 coeff = %v", BandCoeff[4])
	}
	if BandCoeff[0] != want0 {
		t.Errorf("band 0 coeff = %v", BandCoeff[0])
	}
}

func TestFluxColorRoundTrip(t *testing.T) {
	flux := [NumBands]float64{1.2, 3.4, 5.6, 7.8, 9.1}
	c := ColorsFromFluxes(flux)
	back := FluxesFromColors(flux[RefBand], c)
	for b := 0; b < NumBands; b++ {
		if math.Abs(back[b]-flux[b]) > 1e-10 {
			t.Errorf("band %d: %v vs %v", b, back[b], flux[b])
		}
	}
}

func TestFluxMomentsAgainstMonteCarlo(t *testing.T) {
	r1, r2 := math.Log(3.0), 0.2
	c1 := [NumColors]float64{0.6, 0.3, 0.2, 0.1}
	c2 := [NumColors]float64{0.04, 0.05, 0.03, 0.06}
	m1, m2 := FluxMoments(r1, r2, c1, c2)

	src := rng.New(77)
	const n = 400000
	var s1, s2 [NumBands]float64
	for i := 0; i < n; i++ {
		logr := src.NormalMV(r1, math.Sqrt(r2))
		var cs [NumColors]float64
		for j := 0; j < NumColors; j++ {
			cs[j] = src.NormalMV(c1[j], math.Sqrt(c2[j]))
		}
		f := FluxesFromColors(math.Exp(logr), cs)
		for b := 0; b < NumBands; b++ {
			s1[b] += f[b]
			s2[b] += f[b] * f[b]
		}
	}
	for b := 0; b < NumBands; b++ {
		mc1 := s1[b] / n
		mc2 := s2[b] / n
		if math.Abs(mc1-m1[b])/m1[b] > 0.02 {
			t.Errorf("band %d: E[f] analytic %v vs MC %v", b, m1[b], mc1)
		}
		if math.Abs(mc2-m2[b])/m2[b] > 0.08 {
			t.Errorf("band %d: E[f²] analytic %v vs MC %v", b, m2[b], mc2)
		}
	}
}

func TestInitialParamsSeedsNearCatalog(t *testing.T) {
	e := CatalogEntry{
		ID:         3,
		Pos:        geom.Pt2{RA: 10, Dec: 20},
		ProbGal:    1,
		Flux:       [NumBands]float64{0.5, 1.5, 3.0, 4.0, 4.5},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.7, GalScale: 8e-4,
	}
	p := InitialParams(&e)
	c := p.Constrained()
	if c.Pos != e.Pos {
		t.Errorf("pos = %v", c.Pos)
	}
	// Expected reference flux matches the catalog value.
	fl := c.ExpectedFluxes()
	if math.Abs(fl[RefBand]-3.0)/3.0 > 1e-9 {
		t.Errorf("expected ref flux = %v, want 3", fl[RefBand])
	}
	if c.ProbGal < 0.9 {
		t.Errorf("ProbGal = %v, want near catalog value", c.ProbGal)
	}
	if math.Abs(c.GalScale-8e-4) > 1e-12 {
		t.Errorf("scale = %v", c.GalScale)
	}
}

func TestSummarizeUncertainty(t *testing.T) {
	e := CatalogEntry{
		Pos:          geom.Pt2{RA: 1, Dec: 2},
		ProbGal:      0.5,
		Flux:         [NumBands]float64{1, 2, 3, 4, 5},
		GalAxisRatio: 0.5, GalDevFrac: 0.5, GalScale: 1e-3,
	}
	p := InitialParams(&e)
	c := p.Constrained()
	out := Summarize(9, &c)
	if out.ID != 9 {
		t.Errorf("ID = %d", out.ID)
	}
	// The initialization uses r2 = 0.25, so flux SD must be positive and of
	// the right order: Var = (e^v - 1) E[f]^2.
	for b := 0; b < NumBands; b++ {
		if out.FluxSD[b] <= 0 {
			t.Fatalf("band %d: FluxSD = %v", b, out.FluxSD[b])
		}
	}
	wantSD := math.Sqrt(math.Exp(0.25)-1) * out.Flux[RefBand]
	if math.Abs(out.FluxSD[RefBand]-wantSD)/wantSD > 0.3 {
		t.Errorf("ref FluxSD = %v, want ~%v", out.FluxSD[RefBand], wantSD)
	}
	if out.ProbGalSD <= 0.49 {
		t.Errorf("ProbGalSD = %v for maximally uncertain type", out.ProbGalSD)
	}
}

func TestFitPriorsRecoversPopulation(t *testing.T) {
	truth := DefaultPriors()
	r := rng.New(5)
	var entries []CatalogEntry
	for i := 0; i < 4000; i++ {
		pos := geom.Pt2{RA: r.Float64(), Dec: r.Float64()}
		entries = append(entries, truth.Sample(r, i, pos))
	}
	got := FitPriors(entries)
	if math.Abs(got.ProbGal-truth.ProbGal) > 0.05 {
		t.Errorf("ProbGal = %v, want %v", got.ProbGal, truth.ProbGal)
	}
	for tt := 0; tt < NumTypes; tt++ {
		if math.Abs(got.R1Mean[tt]-truth.R1Mean[tt]) > 0.15 {
			t.Errorf("type %d: R1Mean = %v, want %v", tt, got.R1Mean[tt], truth.R1Mean[tt])
		}
		if math.Abs(got.R1SD[tt]-truth.R1SD[tt]) > 0.15 {
			t.Errorf("type %d: R1SD = %v, want %v", tt, got.R1SD[tt], truth.R1SD[tt])
		}
	}
	if math.Abs(got.GalScaleLogMean-truth.GalScaleLogMean) > 0.1 {
		t.Errorf("GalScaleLogMean = %v, want %v", got.GalScaleLogMean, truth.GalScaleLogMean)
	}
	// The fitted color mixture should assign reasonable density to fresh
	// samples from the truth (sanity check on EM).
	var lpFit, lpDefault float64
	probe := rng.New(6)
	for i := 0; i < 500; i++ {
		e := truth.Sample(probe, i, geom.Pt2{})
		tt := Star
		if e.IsGal() {
			tt = Gal
		}
		cs := e.Colors()
		lpFit += colorLogDensity(&got, tt, cs)
		lpDefault += colorLogDensity(&truth, tt, cs)
	}
	if lpFit < lpDefault-500 {
		t.Errorf("fitted prior much worse than truth: %v vs %v", lpFit, lpDefault)
	}
}

func colorLogDensity(p *Priors, t int, c [NumColors]float64) float64 {
	var best float64 = math.Inf(-1)
	for d := 0; d < NumPriorComps; d++ {
		lp := math.Log(math.Max(p.KWeight[t][d], 1e-300))
		for i := 0; i < NumColors; i++ {
			z := c[i] - p.CMean[t][d][i]
			v := p.CVar[t][d][i]
			lp += -0.5*z*z/v - 0.5*math.Log(2*math.Pi*v)
		}
		if lp > best {
			best = lp
		}
	}
	return best
}

func TestJacFromWCSInvertsCD(t *testing.T) {
	w := geom.WCS{CD11: 2e-4, CD12: 1e-5, CD21: -2e-5, CD22: 1.8e-4}
	j := JacFromWCS(w)
	// J * CD = I.
	i11 := j.A11*w.CD11 + j.A12*w.CD21
	i12 := j.A11*w.CD12 + j.A12*w.CD22
	i21 := j.A21*w.CD11 + j.A22*w.CD21
	i22 := j.A21*w.CD12 + j.A22*w.CD22
	if math.Abs(i11-1) > 1e-12 || math.Abs(i12) > 1e-12 ||
		math.Abs(i21) > 1e-12 || math.Abs(i22-1) > 1e-12 {
		t.Errorf("J*CD = [%v %v; %v %v]", i11, i12, i21, i22)
	}
}

func testPSF() mog.Mixture {
	return mog.Mixture{
		{Weight: 0.8, Sxx: 1.5, Syy: 1.5},
		{Weight: 0.2, Sxx: 5, Syy: 5},
	}
}

func TestRenderStarTotalCounts(t *testing.T) {
	w := geom.NewSimpleWCS(0, 0, 1.0/3600) // 1 arcsec pixels
	e := CatalogEntry{
		Pos:  geom.Pt2{RA: 32 / 3600.0, Dec: 32 / 3600.0},
		Flux: [NumBands]float64{1, 2, 3, 4, 5},
	}
	width, height := 64, 64
	buf := make([]float64, width*height)
	iota := 100.0
	AddExpectedCounts(buf, width, height, w, testPSF(), &e, RefBand, iota, 6)
	var total float64
	for _, v := range buf {
		total += v
	}
	want := 3.0 * iota
	if math.Abs(total-want)/want > 0.01 {
		t.Errorf("total star counts = %v, want %v", total, want)
	}
}

func TestRenderGalaxyTotalCounts(t *testing.T) {
	w := geom.NewSimpleWCS(0, 0, 1.0/3600)
	e := CatalogEntry{
		Pos:        geom.Pt2{RA: 64 / 3600.0, Dec: 64 / 3600.0},
		ProbGal:    1,
		Flux:       [NumBands]float64{1, 2, 3, 4, 5},
		GalDevFrac: 0.0, GalAxisRatio: 0.7, GalAngle: 0.5, GalScale: 2.0 / 3600,
	}
	width, height := 128, 128
	buf := make([]float64, width*height)
	AddExpectedCounts(buf, width, height, w, testPSF(), &e, 1, 50, 6)
	var total float64
	for _, v := range buf {
		total += v
	}
	want := 2.0 * 50
	if math.Abs(total-want)/want > 0.03 {
		t.Errorf("total galaxy counts = %v, want %v", total, want)
	}
}

func TestRenderOffImageIsNoop(t *testing.T) {
	w := geom.NewSimpleWCS(0, 0, 1.0/3600)
	e := CatalogEntry{
		Pos:  geom.Pt2{RA: 10, Dec: 10}, // far off the 64x64 frame
		Flux: [NumBands]float64{1, 1, 1, 1, 1},
	}
	buf := make([]float64, 64*64)
	AddExpectedCounts(buf, 64, 64, w, testPSF(), &e, RefBand, 100, 6)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("pixel %d = %v, want 0", i, v)
		}
	}
}

func TestSourceMixtureGalaxyBroaderThanStar(t *testing.T) {
	w := geom.NewSimpleWCS(0, 0, 1.0/3600)
	star := CatalogEntry{Pos: geom.Pt2{RA: 0.005, Dec: 0.005}, Flux: [NumBands]float64{1, 1, 1, 1, 1}}
	gal := star
	gal.ProbGal = 1
	gal.GalAxisRatio = 0.8
	gal.GalScale = 3.0 / 3600
	gal.GalDevFrac = 0.5
	ms := SourceMixture(&star, w, testPSF())
	mg := SourceMixture(&gal, w, testPSF())
	px, py := w.WorldToPix(star.Pos)
	if ms.Eval(px, py) <= mg.Eval(px, py) {
		// A star concentrates more light at the center than an extended
		// galaxy with the same flux.
		t.Errorf("star center density %v <= galaxy %v", ms.Eval(px, py), mg.Eval(px, py))
	}
}
