package vi

import (
	"math"
	"testing"

	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

const pixScale = 1.1e-4

// makeScene renders nEpochs five-band images of a single truth source and
// builds the per-source problem seeded by a perturbed catalog entry.
func makeScene(t *testing.T, seed uint64, truth model.CatalogEntry, nEpochs int) (
	*elbo.Problem, model.Params) {
	t.Helper()
	r := rng.New(seed)
	priors := model.DefaultPriors()

	var images []*survey.Image
	size := 48
	for ep := 0; ep < nEpochs; ep++ {
		for b := 0; b < model.NumBands; b++ {
			w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
				truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
			p := psf.Default(1.1 + 0.1*float64(ep%3))
			iota := 90 + 10*float64(ep%4)
			sky := 70 + 8*float64(ep%3)
			im := &survey.Image{
				ID: ep*model.NumBands + b, Band: b, W: size, H: size,
				WCS: w, PSF: p, Iota: iota, Sky: sky,
				Pixels: make([]float64, size*size),
			}
			for i := range im.Pixels {
				im.Pixels[i] = sky
			}
			model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, b, iota, 6)
			for i, lam := range im.Pixels {
				im.Pixels[i] = float64(r.Poisson(lam))
			}
			images = append(images, im)
		}
	}

	pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 14)

	// Initialize from a perturbed entry, as from a noisy existing catalog.
	init := truth
	init.Pos.RA += r.Normal() * 0.7 * pixScale
	init.Pos.Dec += r.Normal() * 0.7 * pixScale
	for b := 0; b < model.NumBands; b++ {
		init.Flux[b] *= math.Exp(r.Normal() * 0.2)
	}
	init.ProbGal = 0.5
	if truth.IsGal() {
		init.GalScale = truth.GalScale * math.Exp(r.Normal()*0.2)
		init.GalAxisRatio = 0.5
		init.GalDevFrac = 0.5
		init.GalAngle = truth.GalAngle + r.Normal()*0.3
	}
	return pb, model.InitialParams(&init)
}

func starTruth() model.CatalogEntry {
	return model.CatalogEntry{
		ID:  0,
		Pos: geom.Pt2{RA: 0.01, Dec: 0.01},
		// A bright star: ~25-sigma detection per epoch.
		Flux: [model.NumBands]float64{8, 12, 15, 17, 18},
	}
}

func galTruth() model.CatalogEntry {
	return model.CatalogEntry{
		ID: 1, Pos: geom.Pt2{RA: 0.01, Dec: 0.01}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 16, 22, 26, 28},
		GalDevFrac: 0.25, GalAxisRatio: 0.65, GalAngle: 0.9, GalScale: 2.2 * pixScale,
	}
}

func TestFitRecoversBrightStar(t *testing.T) {
	truth := starTruth()
	pb, init := makeScene(t, 101, truth, 2)
	res := FitWith(pb, init, Options{}, NewScratch())
	c := res.Params.Constrained()

	if d := geom.Dist(c.Pos, truth.Pos) / pixScale; d > 0.25 {
		t.Errorf("position error = %.3f px", d)
	}
	if c.ProbGal > 0.2 {
		t.Errorf("star classified with ProbGal = %v", c.ProbGal)
	}
	fl := c.ExpectedFluxes()
	for b := 1; b < model.NumBands; b++ { // u band is faint; skip strictness
		relErr := math.Abs(fl[b]-truth.Flux[b]) / truth.Flux[b]
		if relErr > 0.10 {
			t.Errorf("band %d flux = %v, truth %v (%.1f%%)", b, fl[b], truth.Flux[b], relErr*100)
		}
	}
	if res.Iters > 60 {
		t.Errorf("took %d iterations; paper reports tens", res.Iters)
	}
	if res.Visits == 0 {
		t.Error("no active pixel visits recorded")
	}
}

func TestFitRecoversGalaxy(t *testing.T) {
	truth := galTruth()
	pb, init := makeScene(t, 202, truth, 3)
	res := FitWith(pb, init, Options{}, NewScratch())
	c := res.Params.Constrained()

	if d := geom.Dist(c.Pos, truth.Pos) / pixScale; d > 0.35 {
		t.Errorf("position error = %.3f px", d)
	}
	if c.ProbGal < 0.8 {
		t.Errorf("galaxy classified with ProbGal = %v", c.ProbGal)
	}
	fl := c.ExpectedFluxes()
	relErr := math.Abs(fl[model.RefBand]-truth.Flux[model.RefBand]) / truth.Flux[model.RefBand]
	if relErr > 0.10 {
		t.Errorf("ref flux = %v, truth %v", fl[model.RefBand], truth.Flux[model.RefBand])
	}
	if math.Abs(c.GalScale-truth.GalScale)/truth.GalScale > 0.25 {
		t.Errorf("scale = %v, truth %v", c.GalScale, truth.GalScale)
	}
	if math.Abs(c.GalAxisRatio-truth.GalAxisRatio) > 0.15 {
		t.Errorf("axis ratio = %v, truth %v", c.GalAxisRatio, truth.GalAxisRatio)
	}
}

func TestFitImprovesELBO(t *testing.T) {
	truth := starTruth()
	pb, init := makeScene(t, 303, truth, 1)
	v0, _ := pb.EvalValueWith(&init, elbo.NewScratch())
	res := FitWith(pb, init, Options{MaxIter: 30}, NewScratch())
	if res.ELBO <= v0 {
		t.Errorf("ELBO did not improve: %v -> %v", v0, res.ELBO)
	}
}

func TestMoreEpochsTightenUncertainty(t *testing.T) {
	truth := starTruth()
	epochs := 4
	if testing.Short() {
		epochs = 3 // same shrink-with-data assertion on a cheaper scene
	}
	pb1, init1 := makeScene(t, 404, truth, 1)
	pb4, init4 := makeScene(t, 404, truth, epochs)
	r1 := FitWith(pb1, init1, Options{}, NewScratch())
	r4 := FitWith(pb4, init4, Options{}, NewScratch())
	c1 := r1.Params.Constrained()
	c4 := r4.Params.Constrained()
	e1 := model.Summarize(0, &c1)
	e4 := model.Summarize(0, &c4)
	if e4.FluxSD[model.RefBand] >= e1.FluxSD[model.RefBand] {
		t.Errorf("flux SD did not shrink with more data: %v (1 epoch) vs %v (4 epochs)",
			e1.FluxSD[model.RefBand], e4.FluxSD[model.RefBand])
	}
}

func TestUncertaintyCovers(t *testing.T) {
	// Repeated fits on fresh noise realizations: the posterior SD should be
	// in the right ballpark — |z| rarely extreme.
	truth := starTruth()
	reps := 5
	if testing.Short() {
		reps = 2 // coverage spot-check; the full run exercises 5 realizations
	}
	var zs []float64
	for rep := 0; rep < reps; rep++ {
		pb, init := makeScene(t, 500+uint64(rep), truth, 2)
		res := FitWith(pb, init, Options{}, NewScratch())
		c := res.Params.Constrained()
		e := model.Summarize(0, &c)
		z := (e.Flux[model.RefBand] - truth.Flux[model.RefBand]) / e.FluxSD[model.RefBand]
		zs = append(zs, z)
	}
	for _, z := range zs {
		if math.Abs(z) > 6 {
			t.Errorf("flux z-score %v implausibly large; zs = %v", z, zs)
		}
	}
}

// TestFitWithWarmInitRadius simulates the cross-sweep warm start: re-fitting
// from a converged solution with the cached radius must converge almost
// immediately, and must reach the same optimum as a cold re-fit.
func TestFitWithWarmInitRadius(t *testing.T) {
	pb, init := makeScene(t, 202, galTruth(), 3)
	first := FitWith(pb, init, Options{MaxIter: 120, GradTol: 1e-6}, NewScratch())
	if !first.Converged {
		t.Fatalf("first fit did not converge: %s", first.Status)
	}

	warm := Options{MaxIter: 120, GradTol: 1e-6, InitRadius: 4 * first.FinalRadius}
	re := FitWith(pb, first.Params, warm, NewScratch())
	if !re.Converged {
		t.Fatalf("warm re-fit did not converge: %s", re.Status)
	}
	if re.Iters > 10 {
		t.Errorf("warm re-fit took %d iterations; a converged start should need a handful", re.Iters)
	}
	if d := re.ELBO - first.ELBO; d < -1e-6*(1+first.ELBO) {
		t.Errorf("warm re-fit ELBO %f below first %f", re.ELBO, first.ELBO)
	}
}

func TestNewtonVsLBFGSIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation comparison is slow")
	}
	truth := galTruth()
	pb, init := makeScene(t, 606, truth, 1)
	newton := FitWith(pb, init, Options{GradTol: 1e-4}, NewScratch())
	lbfgs := FitLBFGS(pb, init, 120)
	// Newton converges in tens of iterations; L-BFGS needs many more
	// (or fails to reach tolerance at all) — Section IV-D.
	if newton.Iters > 60 {
		t.Errorf("Newton took %d iterations", newton.Iters)
	}
	// L-BFGS runs on the gradient tier alone.
	if !(lbfgs.GradEvals > 0 && lbfgs.FullEvals == 0) {
		t.Errorf("L-BFGS made %d gradient-tier and %d full evaluations, want only gradient-tier ones",
			lbfgs.GradEvals, lbfgs.FullEvals)
	}
	if lbfgs.Converged && lbfgs.Iters < newton.Iters {
		t.Errorf("L-BFGS (%d) beat Newton (%d); unexpected on this objective",
			lbfgs.Iters, newton.Iters)
	}
	t.Logf("Newton %d iters (ELBO %.2f) vs L-BFGS %d iters (ELBO %.2f)",
		newton.Iters, newton.ELBO, lbfgs.Iters, lbfgs.ELBO)
}

func TestFitWithNeighborSubtraction(t *testing.T) {
	// Two overlapping stars: fitting one with the other folded into the
	// background must recover its flux far better than pretending the
	// neighbor is not there.
	r := rng.New(77)
	priors := model.DefaultPriors()
	a := model.CatalogEntry{
		ID: 0, Pos: geom.Pt2{RA: 0.01, Dec: 0.01},
		Flux: [model.NumBands]float64{10, 14, 18, 20, 22},
	}
	b := model.CatalogEntry{
		ID: 1, Pos: geom.Pt2{RA: 0.01 + 3.5*pixScale, Dec: 0.01},
		Flux: [model.NumBands]float64{12, 17, 24, 27, 30},
	}
	size := 48
	var images []*survey.Image
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(a.Pos.RA-float64(size)/2*pixScale,
			a.Pos.Dec-float64(size)/2*pixScale, pixScale)
		p := psf.Default(1.2)
		im := &survey.Image{
			ID: band, Band: band, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 75, Pixels: make([]float64, size*size),
		}
		for i := range im.Pixels {
			im.Pixels[i] = 75
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &a, band, 100, 6)
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &b, band, 100, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}

	mkProblem := func(withNeighbor bool) *elbo.Problem {
		var bld elbo.Builder
		pb := bld.Build(&priors, images, a.Pos, 12)
		if withNeighbor {
			bp := model.InitialParams(&b)
			bc := bp.Constrained()
			bld.AddNeighbor(&bc)
		}
		return pb
	}
	init := model.InitialParams(&a)

	with := FitWith(mkProblem(true), init, Options{}, NewScratch())
	without := FitWith(mkProblem(false), init, Options{}, NewScratch())
	cw := with.Params.Constrained()
	cwo := without.Params.Constrained()
	errWith := math.Abs(cw.ExpectedFluxes()[model.RefBand] - a.Flux[model.RefBand])
	errWithout := math.Abs(cwo.ExpectedFluxes()[model.RefBand] - a.Flux[model.RefBand])
	if errWith >= errWithout {
		t.Errorf("neighbor subtraction did not help: err %v (with) vs %v (without)",
			errWith, errWithout)
	}
	// And the fit with subtraction should be reasonably accurate in absolute
	// terms (the pair is heavily blended — 3.5 px apart at PSF sigma 1.2 —
	// so some flux ambiguity is irreducible from a single epoch).
	if errWith/a.Flux[model.RefBand] > 0.3 {
		t.Errorf("flux error with neighbor subtraction: %v", errWith/a.Flux[model.RefBand])
	}
}

func BenchmarkFitStar(b *testing.B) {
	truth := starTruth()
	r := rng.New(9)
	priors := model.DefaultPriors()
	size := 40
	var images []*survey.Image
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
			truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
		p := psf.Default(1.2)
		im := &survey.Image{
			ID: band, Band: band, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 75, Pixels: make([]float64, size*size),
		}
		for i := range im.Pixels {
			im.Pixels[i] = 75
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, 100, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}
	init := model.InitialParams(&truth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 10)
		FitWith(pb, init, Options{MaxIter: 25, GradTol: 1e-4}, NewScratch())
	}
}
