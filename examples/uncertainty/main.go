// Uncertainty: the paper argues that for sources near the detection limit,
// calibrated posterior uncertainty matters as much as the point estimate.
// This example fits the same faint star across several noise realizations
// and shows the posterior standard deviation tracking the actual scatter —
// and an ambiguous source getting an honestly uncertain classification.
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

const pixScale = 1.1e-4

func render(seed uint64, truth celeste.CatalogEntry) []*celeste.Image {
	r := rng.New(seed)
	var images []*celeste.Image
	size := 40
	for band := 0; band < model.NumBands; band++ {
		w := geom.NewSimpleWCS(truth.Pos.RA-float64(size)/2*pixScale,
			truth.Pos.Dec-float64(size)/2*pixScale, pixScale)
		p := psf.Default(1.2)
		im := &survey.Image{Band: band, W: size, H: size, WCS: w, PSF: p,
			Iota: 100, Sky: 80, Pixels: make([]float64, size*size)}
		for i := range im.Pixels {
			im.Pixels[i] = im.Sky
		}
		model.AddExpectedCounts(im.Pixels, size, size, w, p, &truth, band, im.Iota, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		images = append(images, im)
	}
	return images
}

func main() {
	priors := celeste.DefaultPriors()

	faint := celeste.CatalogEntry{
		Pos:  celeste.SkyPos{RA: 0.0022, Dec: 0.0022},
		Flux: [5]float64{1.0, 1.6, 2.2, 2.6, 2.8}, // near the detection limit
	}

	fmt.Println("faint star, 8 independent noise realizations:")
	var ests, sds []float64
	for rep := uint64(0); rep < 8; rep++ {
		images := render(100+rep, faint)
		init := faint
		init.ProbGal = 0.5
		entry, _, _, err := celeste.FitSource(images, &priors, init, 30)
		if err != nil {
			log.Fatal(err)
		}
		ests = append(ests, entry.Flux[model.RefBand])
		sds = append(sds, entry.FluxSD[model.RefBand])
		fmt.Printf("  rep %d: r-flux %.2f ± %.2f (truth %.1f)\n",
			rep, entry.Flux[model.RefBand], entry.FluxSD[model.RefBand],
			faint.Flux[model.RefBand])
	}
	mean, scatter := stats(ests)
	var meanSD float64
	for _, s := range sds {
		meanSD += s / float64(len(sds))
	}
	fmt.Printf("empirical scatter %.2f vs mean reported SD %.2f — same scale\n\n",
		scatter, meanSD)
	_ = mean

	// An ambiguous compact galaxy: the posterior type probability hedges
	// rather than committing, unlike a hard heuristic label.
	fmt.Println("compact faint galaxies, increasingly point-like:")
	for _, scale := range []float64{3, 1.5, 0.7} {
		ambiguous := celeste.CatalogEntry{
			Pos: celeste.SkyPos{RA: 0.0022, Dec: 0.0022}, ProbGal: 1,
			Flux:       [5]float64{1.2, 1.9, 2.6, 3.1, 3.4},
			GalDevFrac: 0.5, GalAxisRatio: 0.85, GalAngle: 0.3,
			GalScale: scale * pixScale,
		}
		images := render(55, ambiguous)
		init := ambiguous
		init.ProbGal = 0.5
		entry, _, _, err := celeste.FitSource(images, &priors, init, 30)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  half-light radius %.1f px: P(galaxy) = %.2f ± %.2f\n",
			scale, entry.ProbGal, entry.ProbGalSD)
	}
	fmt.Println("a hard classifier must guess; the posterior reports the ambiguity")
}

func stats(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
