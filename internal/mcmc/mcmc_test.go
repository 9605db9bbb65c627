package mcmc

import (
	"math"
	"testing"

	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

const pixScale = 1.1e-4

func makeScene(seed uint64, truth model.CatalogEntry) ([]*survey.Image, model.Priors) {
	r := rng.New(seed)
	priors := model.DefaultPriors()
	var images []*survey.Image
	size := 40
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
			truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
		p := psf.Default(1.2)
		im := &survey.Image{Band: band, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 80, Pixels: make([]float64, size*size)}
		for i := range im.Pixels {
			im.Pixels[i] = 80
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, 100, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}
	return images, priors
}

func starTruth() model.CatalogEntry {
	return model.CatalogEntry{
		Pos:  geom.Pt2{RA: 0.002, Dec: 0.002},
		Flux: [model.NumBands]float64{8, 12, 16, 18, 20},
	}
}

func TestLogPosteriorPrefersTruth(t *testing.T) {
	truth := starTruth()
	images, priors := makeScene(1, truth)
	pb := NewProblem(&priors, images, truth.Pos, 10)

	good := InitState(&truth)
	lpGood := pb.LogPosterior(&good)

	bad := good
	bad.LogFlux += 1.0 // nearly 3x too bright
	if lpBad := pb.LogPosterior(&bad); lpBad >= lpGood {
		t.Errorf("posterior prefers wrong flux: %v >= %v", lpBad, lpGood)
	}
	shifted := good
	shifted.Pos.RA += 3 * pixScale
	if lpShift := pb.LogPosterior(&shifted); lpShift >= lpGood {
		t.Errorf("posterior prefers wrong position: %v >= %v", lpShift, lpGood)
	}
	wrongType := good
	wrongType.IsGal = true
	wrongType.LogScale = math.Log(3 * pixScale)
	wrongType.AxisRatio = 0.6
	wrongType.DevFrac = 0.4
	if lpType := pb.LogPosterior(&wrongType); lpType >= lpGood {
		t.Errorf("posterior prefers galaxy for a star: %v >= %v", lpType, lpGood)
	}
}

func TestLogPriorRejectsInvalidShapes(t *testing.T) {
	truth := starTruth()
	images, priors := makeScene(2, truth)
	pb := NewProblem(&priors, images, truth.Pos, 8)
	s := InitState(&truth)
	s.IsGal = true
	s.AxisRatio = 1.5
	if lp := pb.LogPosterior(&s); !math.IsInf(lp, -1) {
		t.Errorf("invalid axis ratio accepted: %v", lp)
	}
}

func TestSamplerRecoversStar(t *testing.T) {
	truth := starTruth()
	images, priors := makeScene(3, truth)
	pb := NewProblem(&priors, images, truth.Pos, 10)

	init := truth
	init.Pos.RA += 0.8 * pixScale
	init.Flux[model.RefBand] *= 1.4
	start := InitState(&init)

	samples, burn := 1500, 500
	if testing.Short() {
		samples, burn = 700, 250 // enough mixing for the same recovery bands
	}
	r := rng.New(4)
	res := pb.Run(start, r, Options{Samples: samples, BurnIn: burn})

	if res.ProbGal > 0.1 {
		t.Errorf("P(gal) = %v for a clear star", res.ProbGal)
	}
	relErr := math.Abs(res.FluxMean[model.RefBand]-truth.Flux[model.RefBand]) /
		truth.Flux[model.RefBand]
	if relErr > 0.12 {
		t.Errorf("posterior mean flux %v vs truth %v (%.0f%%)",
			res.FluxMean[model.RefBand], truth.Flux[model.RefBand], relErr*100)
	}
	if d := geom.Dist(res.PosMean, truth.Pos) / pixScale; d > 0.5 {
		t.Errorf("posterior mean position off by %.2f px", d)
	}
	if res.FluxSD[model.RefBand] <= 0 {
		t.Error("zero posterior flux SD")
	}
	if res.AcceptanceRate < 0.05 || res.AcceptanceRate > 0.95 {
		t.Errorf("acceptance rate %v outside sane range", res.AcceptanceRate)
	}
	if res.LogLikeEvals < int64(2*(samples+burn)) {
		t.Errorf("expected thousands of likelihood evaluations, got %d", res.LogLikeEvals)
	}
}

func TestSamplerAgreesWithVI(t *testing.T) {
	// The MCMC posterior and the variational posterior should land on
	// compatible flux estimates for a well-constrained source — that is the
	// paper's premise: VI approximates the same posterior at far lower cost.
	truth := starTruth()
	images, priors := makeScene(5, truth)

	samples, burn := 1200, 400
	if testing.Short() {
		samples, burn = 600, 200 // the 3-sigma agreement band absorbs the noise
	}
	pbm := NewProblem(&priors, images, truth.Pos, 10)
	r := rng.New(6)
	mres := pbm.Run(InitState(&truth), r, Options{Samples: samples, BurnIn: burn})

	// VI via the public-facing machinery.
	viFlux, viSD := fitVIFlux(t, images, &priors, truth)

	diff := math.Abs(mres.FluxMean[model.RefBand] - viFlux)
	tol := 3 * (mres.FluxSD[model.RefBand] + viSD)
	if diff > tol {
		t.Errorf("VI (%v±%v) and MCMC (%v±%v) disagree beyond tolerance",
			viFlux, viSD, mres.FluxMean[model.RefBand], mres.FluxSD[model.RefBand])
	}
	// Both uncertainties should be the same order of magnitude.
	ratio := mres.FluxSD[model.RefBand] / viSD
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("SD ratio MCMC/VI = %v", ratio)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	truth := starTruth()
	images, priors := makeScene(7, truth)
	pb := NewProblem(&priors, images, truth.Pos, 8)
	a := pb.Run(InitState(&truth), rng.New(9), Options{Samples: 200, BurnIn: 100})
	b := pb.Run(InitState(&truth), rng.New(9), Options{Samples: 200, BurnIn: 100})
	if a.FluxMean != b.FluxMean || a.ProbGal != b.ProbGal {
		t.Error("sampler not deterministic under a fixed seed")
	}
}

func fitVIFlux(t *testing.T, images []*survey.Image, priors *model.Priors,
	truth model.CatalogEntry) (mean, sd float64) {
	t.Helper()
	pb := new(elbo.Builder).Build(priors, images, truth.Pos, 10)
	res := vi.FitWith(pb, model.InitialParams(&truth), vi.Options{MaxIter: 40}, vi.NewScratch())
	c := res.Params.Constrained()
	e := model.Summarize(0, &c)
	return e.Flux[model.RefBand], e.FluxSD[model.RefBand]
}
