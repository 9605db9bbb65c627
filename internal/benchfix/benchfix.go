// Package benchfix builds the fixed-seed fixtures that tests and benchmarks in
// several packages share: a single-source five-band scene for the ELBO/fit
// kernels and a small multi-source region for joint inference. The
// allocation tests of internal/elbo, internal/vi and internal/core and the
// root package's BenchmarkHotPath all measure these, so a budget and a timing
// refer to the same workload.
package benchfix

import (
	"math"

	"celeste/internal/core"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// PixScale is the SDSS-like pixel scale (degrees/pixel) of every fixture.
const PixScale = 1.1e-4

// SceneImages renders the five-band single-galaxy scene for the kernel
// benchmarks: one 48x48 image per band with Poisson noise at a fixed seed.
func SceneImages(seed uint64) ([]*survey.Image, model.CatalogEntry) {
	r := rng.New(seed)
	truth := model.CatalogEntry{
		Pos: geom.Pt2{RA: 0.003, Dec: 0.003}, ProbGal: 1,
		Flux:       [model.NumBands]float64{10, 15, 20, 23, 25},
		GalDevFrac: 0.3, GalAxisRatio: 0.6, GalAngle: 0.8, GalScale: 2 * PixScale,
	}
	var images []*survey.Image
	size := 48
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*PixScale,
			truth.Pos.Dec-float64(size)/2*PixScale, PixScale)
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
	return images, truth
}

// SingleSourceScene builds the per-source optimization problem over the
// SceneImages scene plus its initialization.
func SingleSourceScene(seed uint64) (*elbo.Problem, model.Params) {
	images, truth := SceneImages(seed)
	priors := model.DefaultPriors()
	pb := new(elbo.Builder).Build(&priors, images, truth.Pos, 12)
	return pb, model.InitialParams(&truth)
}

// SmallRegion builds a fixed-seed multi-source region for core.Process
// benchmarks, returning the region, a deterministic config, and a pristine
// copy of the initial parameters (Process updates Region.Params in place;
// restore from the copy before each measured run).
func SmallRegion(seed uint64) (*core.Region, core.Config, []model.Params) {
	cfg := survey.DefaultConfig(seed)
	cfg.Region = geom.NewBox(0, 0, 0.014, 0.014)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 96, 96
	cfg.SourceDensity = 25000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(8), math.Log(10)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := survey.Generate(cfg)

	noisy := sv.NoisyCatalog(seed + 1)
	priors := model.FitPriors(noisy)
	rg := &core.Region{
		Priors:   &priors,
		Images:   sv.Images,
		PixScale: sv.Config.PixScale,
	}
	for i := range noisy {
		rg.Sources = append(rg.Sources, i)
		rg.Entries = append(rg.Entries, &noisy[i])
		rg.Params = append(rg.Params, model.InitialParams(&noisy[i]))
	}
	init := append([]model.Params(nil), rg.Params...)

	pcfg := core.Config{
		Threads: 4, Rounds: 1, Seed: seed,
		Fit: vi.Options{MaxIter: 10, GradTol: 1e-3},
	}
	return rg, pcfg, init
}
