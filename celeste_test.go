package celeste

import (
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

// TestPublicAPISmoke exercises the documented facade flow end to end on a
// tiny sky: generate, infer, compare.
func TestPublicAPISmoke(t *testing.T) {
	cfg := DefaultSurveyConfig(21)
	cfg.Region = geom.NewBox(0, 0, 0.012, 0.012)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 112, 112
	cfg.SourceDensity = 30000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(10), math.Log(12)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := GenerateSurvey(cfg)
	if len(sv.Truth) == 0 || len(sv.Images) == 0 {
		t.Skip("empty survey draw")
	}

	photoCat := RunPhoto(sv.Images)
	res := Infer(sv, sv.NoisyCatalog(22), InferConfig{
		Threads: 4, Rounds: 1, MaxIter: 15,
	})
	if len(res.Catalog) != len(sv.Truth) {
		t.Fatalf("catalog has %d entries, truth %d", len(res.Catalog), len(sv.Truth))
	}
	if res.Fits == 0 || res.Visits == 0 {
		t.Fatal("no optimization work recorded")
	}
	rows := CompareToTruth(sv, photoCat, res.Catalog)
	if len(rows) != 12 {
		t.Fatalf("expected 12 Table II rows, got %d", len(rows))
	}
	out := FormatComparison(rows)
	if out == "" {
		t.Fatal("empty comparison output")
	}
	// Celeste's posterior catalog must carry uncertainties.
	var withSD int
	for i := range res.Catalog {
		if res.Catalog[i].FluxSD[model.RefBand] > 0 {
			withSD++
		}
	}
	if withSD != len(res.Catalog) {
		t.Errorf("only %d of %d entries have flux uncertainties", withSD, len(res.Catalog))
	}
}

func TestFitSourceFacade(t *testing.T) {
	const pixScale = 1.1e-4
	truth := CatalogEntry{
		Pos:  SkyPos{RA: 0.003, Dec: 0.003},
		Flux: [5]float64{6, 9, 12, 14, 15},
	}
	r := rng.New(31)
	var images []*Image
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
	priors := DefaultPriors()
	init := truth
	init.Pos.RA += pixScale
	init.ProbGal = 0.5
	entry, elbo, iters, err := FitSource(images, &priors, init, 30)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 || elbo == 0 {
		t.Fatal("no fit happened")
	}
	if d := geom.Dist(entry.Pos, truth.Pos) / pixScale; d > 0.5 {
		t.Errorf("position error %.2f px", d)
	}
	if entry.ProbGal > 0.3 {
		t.Errorf("star got ProbGal %.2f", entry.ProbGal)
	}
	if entry.FluxSD[model.RefBand] <= 0 || entry.FluxSD[model.RefBand] > 2 {
		t.Errorf("implausible ref-band SD %v", entry.FluxSD[model.RefBand])
	}
}

// TestFitSourceRejectsNoPixels: with no image at all, or none reaching the
// source, there is nothing to fit; FitSource must say so instead of panicking
// or returning the prior dressed up as a posterior.
func TestFitSourceRejectsNoPixels(t *testing.T) {
	priors := DefaultPriors()
	init := CatalogEntry{Pos: SkyPos{RA: 0.003, Dec: 0.003}, Flux: [5]float64{6, 9, 12, 14, 15}}
	if _, _, _, err := FitSource(nil, &priors, init, 30); err == nil {
		t.Error("FitSource(nil images) returned no error")
	}

	const pixScale = 1.1e-4
	far := &survey.Image{W: 40, H: 40, WCS: geom.NewSimpleWCS(1, 1, pixScale), PSF: psf.Default(1.2),
		Iota: 100, Sky: 80, Pixels: make([]float64, 40*40)}
	_, _, iters, err := FitSource([]*Image{far}, &priors, init, 30)
	if err == nil {
		t.Errorf("FitSource with no covering image returned no error (%d iterations)", iters)
	}
}

func TestClusterFacade(t *testing.T) {
	m := DefaultMachine(4)
	w := DefaultWorkload(4 * 68)
	r := SimulateCluster(m, w, false)
	if r.Makespan <= 0 || r.Visits <= 0 {
		t.Fatalf("degenerate simulation: %+v", r)
	}
	weak := WeakScaling([]int{1, 8}, 1)
	if len(weak) != 2 {
		t.Fatal("weak scaling results missing")
	}
	if weak[1].Components.LoadImbalance <= weak[0].Components.LoadImbalance {
		t.Error("imbalance should grow with node count")
	}
}
