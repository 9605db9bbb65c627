// Quickstart: synthesize a tiny sky, fit one star with the public API, and
// print the Bayesian catalog entry with its posterior uncertainties — the
// five-minute tour of what Celeste produces that a heuristic pipeline
// cannot.
package main

import (
	"fmt"
	"log"
	"math"

	"celeste"
	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

func main() {
	const pixScale = 1.1e-4 // degrees/pixel, SDSS-like

	// The true source: a moderately bright star.
	truth := celeste.CatalogEntry{
		ID:   0,
		Pos:  celeste.SkyPos{RA: 0.003, Dec: 0.003},
		Flux: [5]float64{6, 9, 12, 14, 15}, // nanomaggies in ugriz
	}

	// Two epochs of five-band imagery rendered from the generative model.
	r := rng.New(7)
	var images []*celeste.Image
	size := 48
	for epoch := 0; epoch < 2; epoch++ {
		for band := 0; band < model.NumBands; band++ {
			w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
				truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
			p := psf.Default(1.1 + 0.1*float64(epoch))
			im := &survey.Image{
				Band: band, W: size, H: size, WCS: w, PSF: p,
				Iota: 100, Sky: 80, Pixels: make([]float64, size*size),
			}
			for i := range im.Pixels {
				im.Pixels[i] = im.Sky
			}
			model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, im.Iota, 6)
			for i, lam := range im.Pixels {
				im.Pixels[i] = float64(r.Poisson(lam))
			}
			images = append(images, im)
		}
	}

	// Initialize from a deliberately wrong catalog entry (position off by a
	// pixel, flux off by 30%, type unknown) and let the Newton trust-region
	// optimizer recover the truth.
	init := truth
	init.Pos.RA += 1.0 * pixScale
	for b := range init.Flux {
		init.Flux[b] *= 1.3
	}
	init.ProbGal = 0.5

	priors := celeste.DefaultPriors()
	entry, elbo, iters, err := celeste.FitSource(images, &priors, init, 40)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("fitted catalog entry:")
	fmt.Printf("  position error: %.3f pixels\n",
		geom.Dist(entry.Pos, truth.Pos)/pixScale)
	fmt.Printf("  P(galaxy) = %.3f (truth: star)\n", entry.ProbGal)
	for b, name := range [5]string{"u", "g", "r", "i", "z"} {
		fmt.Printf("  %s flux: %6.2f ± %.2f nmgy  (truth %.1f, z=%+.2f)\n",
			name, entry.Flux[b], entry.FluxSD[b], truth.Flux[b],
			(entry.Flux[b]-truth.Flux[b])/entry.FluxSD[b])
	}
	fmt.Printf("  ELBO %.1f after %d Newton iterations\n", elbo, iters)
	if math.Abs(entry.Flux[2]-truth.Flux[2]) < 3*entry.FluxSD[2] {
		fmt.Println("  posterior covers the truth — calibrated uncertainty, not just a point estimate")
	}
}
