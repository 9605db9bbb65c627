// Package survey synthesizes a multi-band, multi-epoch imaging survey from
// Celeste's own generative model, standing in for the SDSS imagery the paper
// processes (see DESIGN.md, substitutions). A survey covers a sky region
// with several "runs" (epochs); each run tiles the region with fields in all
// five bands, with its own dither, PSF width, photometric calibration, and
// sky background. A configurable sub-region is imaged by many extra runs,
// reproducing SDSS's Stripe 82 — the deep validation region Section VIII
// relies on.
//
// Pixels are drawn from the model's Poisson likelihood, so inference on a
// synthetic survey is a well-posed recovery problem with exactly known
// ground truth.
package survey

import (
	"fmt"
	"math"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/psf"
	"celeste/internal/rng"
)

// Image is one band of one field of one run: pixels plus calibration
// metadata (the Λ_n of the paper's model).
type Image struct {
	ID    int
	Run   int
	Field int
	Band  int

	W, H int
	WCS  geom.WCS
	PSF  mog.Mixture

	// Iota converts nanomaggies to expected counts (ι_n); Sky is the
	// expected background in counts per pixel (ι_n · ε_n).
	Iota float64
	Sky  float64

	// Pixels holds observed counts, row-major.
	Pixels []float64
}

// Footprint returns the image's world bounding box.
func (im *Image) Footprint() geom.Box { return im.WCS.Footprint(im.W, im.H) }

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) float64 { return im.Pixels[y*im.W+x] }

// Config controls survey synthesis.
type Config struct {
	Seed   uint64
	Region geom.Box

	PixScale       float64 // degrees per pixel
	FieldW, FieldH int     // field size in pixels

	Runs int // epochs covering the full region

	// DeepRegion, if non-empty, is imaged by DeepRuns additional epochs
	// (the Stripe 82 analogue).
	DeepRegion geom.Box
	DeepRuns   int

	SourceDensity float64 // sources per square degree

	// Per-band calibration ranges; each run draws uniformly within them.
	IotaRange     [2]float64 // counts per nanomaggy
	SkyRange      [2]float64 // background counts per pixel
	PSFSigmaRange [2]float64 // PSF core sigma in pixels

	Priors model.Priors
}

// DefaultConfig returns a small but fully featured survey: a 0.15°×0.15°
// region, 3 full-coverage runs, a deep strip with 12 extra runs.
func DefaultConfig(seed uint64) Config {
	region := geom.NewBox(0, 0, 0.15, 0.15)
	return Config{
		Seed:          seed,
		Region:        region,
		PixScale:      1.1e-4, // ≈ 0.396 arcsec, SDSS-like
		FieldW:        256,
		FieldH:        256,
		Runs:          3,
		DeepRegion:    geom.NewBox(0, 0, 0.15, 0.05),
		DeepRuns:      12,
		SourceDensity: 2500,
		IotaRange:     [2]float64{80, 120},
		SkyRange:      [2]float64{60, 110},
		PSFSigmaRange: [2]float64{1.0, 1.6},
		Priors:        model.DefaultPriors(),
	}
}

// Survey is a generated synthetic survey.
type Survey struct {
	Config Config
	Truth  []model.CatalogEntry
	Images []*Image
}

// Generate synthesizes a survey from the configuration.
func Generate(cfg Config) *Survey {
	r := rng.New(cfg.Seed)
	s := &Survey{Config: cfg}

	// Sample the source population uniformly over an expanded region so
	// edge effects (light from just-outside sources) are present, as in
	// real imagery.
	margin := 30 * cfg.PixScale
	sampleBox := cfg.Region.Expand(margin)
	n := int(cfg.SourceDensity * sampleBox.Area())
	popRNG := r.Split()
	for i := 0; i < n; i++ {
		pos := geom.Pt2{
			RA:  sampleBox.MinRA + popRNG.Float64()*sampleBox.Width(),
			Dec: sampleBox.MinDec + popRNG.Float64()*sampleBox.Height(),
		}
		s.Truth = append(s.Truth, cfg.Priors.Sample(popRNG, i, pos))
	}

	// Full-coverage runs.
	imgRNG := r.Split()
	id := 0
	for run := 0; run < cfg.Runs; run++ {
		id = s.addRun(imgRNG, run, cfg.Region, id)
	}
	// Deep runs over the deep region.
	if cfg.DeepRuns > 0 && cfg.DeepRegion.Area() > 0 {
		for run := 0; run < cfg.DeepRuns; run++ {
			id = s.addRun(imgRNG, cfg.Runs+run, cfg.DeepRegion, id)
		}
	}
	return s
}

// addRun tiles box with fields in every band for one epoch.
func (s *Survey) addRun(r *rng.Source, run int, box geom.Box, nextID int) int {
	cfg := s.Config
	fieldWDeg := float64(cfg.FieldW) * cfg.PixScale
	fieldHDeg := float64(cfg.FieldH) * cfg.PixScale

	// A random dither of up to ±2 px per epoch. The fields then step by
	// exactly one field width, so a run's fields tile the sky edge to edge
	// and never overlap: elbo.Builder stitches a source window that crosses
	// a field edge into one patch.
	ditherRA := (r.Float64() - 0.5) * 4 * cfg.PixScale
	ditherDec := (r.Float64() - 0.5) * 4 * cfg.PixScale

	// Per-run, per-band observing conditions.
	var iota, sky, sigma [model.NumBands]float64
	for b := 0; b < model.NumBands; b++ {
		iota[b] = cfg.IotaRange[0] + r.Float64()*(cfg.IotaRange[1]-cfg.IotaRange[0])
		sky[b] = cfg.SkyRange[0] + r.Float64()*(cfg.SkyRange[1]-cfg.SkyRange[0])
		sigma[b] = cfg.PSFSigmaRange[0] + r.Float64()*(cfg.PSFSigmaRange[1]-cfg.PSFSigmaRange[0])
	}

	field := 0
	for dec := box.MinDec + ditherDec - fieldHDeg/2; dec < box.MaxDec; dec += fieldHDeg {
		for ra := box.MinRA + ditherRA - fieldWDeg/2; ra < box.MaxRA; ra += fieldWDeg {
			for b := 0; b < model.NumBands; b++ {
				im := s.renderImage(r, nextID, run, field, b,
					geom.NewSimpleWCS(ra, dec, cfg.PixScale),
					psf.Default(sigma[b]), iota[b], sky[b])
				s.Images = append(s.Images, im)
				nextID++
			}
			field++
		}
	}
	return nextID
}

func (s *Survey) renderImage(r *rng.Source, id, run, field, band int,
	wcs geom.WCS, p mog.Mixture, iota, sky float64) *Image {

	cfg := s.Config
	im := &Image{
		ID: id, Run: run, Field: field, Band: band,
		W: cfg.FieldW, H: cfg.FieldH,
		WCS: wcs, PSF: p, Iota: iota, Sky: sky,
		Pixels: make([]float64, cfg.FieldW*cfg.FieldH),
	}
	// Expected counts: sky + every truth source near the footprint.
	for i := range im.Pixels {
		im.Pixels[i] = sky
	}
	fp := im.Footprint().Expand(50 * cfg.PixScale)
	for i := range s.Truth {
		e := &s.Truth[i]
		if !fp.Contains(e.Pos) {
			continue
		}
		model.AddExpectedCounts(im.Pixels, im.W, im.H, wcs, p, e, band, iota, 5.5)
	}
	// Poisson realization.
	for i, lam := range im.Pixels {
		im.Pixels[i] = float64(r.Poisson(lam))
	}
	return im
}

// ImagesInBox returns the images whose footprints intersect box, across all
// bands. This is the "determine the relevant images to load" step of task
// processing.
func (s *Survey) ImagesInBox(box geom.Box) []*Image {
	return s.ImagesInBoxInto(nil, box)
}

// ImagesInBoxInto appends the images intersecting box to dst and returns it;
// pass dst[:0] of a retained buffer for allocation-free reuse.
func (s *Survey) ImagesInBoxInto(dst []*Image, box geom.Box) []*Image {
	for _, im := range s.Images {
		if im.Footprint().Intersects(box) {
			dst = append(dst, im)
		}
	}
	return dst
}

// NoisyCatalog derives an initialization catalog from the truth: positions
// jittered, fluxes perturbed, types sometimes wrong, shapes coarsened. This
// plays the role of the preexisting astronomical catalog that the paper uses
// to initialize inference and to generate tasks.
func (s *Survey) NoisyCatalog(seed uint64) []model.CatalogEntry {
	r := rng.New(seed)
	posJit := 0.7 * s.Config.PixScale
	out := make([]model.CatalogEntry, len(s.Truth))
	for i, e := range s.Truth {
		n := e
		n.Pos.RA += r.Normal() * posJit
		n.Pos.Dec += r.Normal() * posJit
		for b := 0; b < model.NumBands; b++ {
			n.Flux[b] = e.Flux[b] * math.Exp(r.Normal()*0.15)
		}
		// 10% type confusion in the seed catalog.
		if r.Float64() < 0.10 {
			n.ProbGal = 1 - math.Round(e.ProbGal)
		}
		if n.IsGal() {
			if n.GalScale <= 0 {
				n.GalScale = math.Exp(s.Config.Priors.GalScaleLogMean)
			}
			n.GalScale *= math.Exp(r.Normal() * 0.2)
			n.GalAxisRatio = clamp01(n.GalAxisRatio + r.Normal()*0.08)
			n.GalDevFrac = clamp01(n.GalDevFrac + r.Normal()*0.1)
			n.GalAngle = math.Mod(n.GalAngle+r.Normal()*0.15+math.Pi, math.Pi)
		}
		out[i] = n
	}
	return out
}

func clamp01(x float64) float64 {
	if x < 0.02 {
		return 0.02
	}
	if x > 0.98 {
		return 0.98
	}
	return x
}

// String summarizes the survey.
func (s *Survey) String() string {
	var px int
	for _, im := range s.Images {
		px += im.W * im.H
	}
	return fmt.Sprintf("survey: %d sources, %d images, %.1f Mpix",
		len(s.Truth), len(s.Images), float64(px)/1e6)
}
