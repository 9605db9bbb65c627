package model

import (
	"math"

	"celeste/internal/geom"
	"celeste/internal/mathx"
)

// CatalogEntry is one light source as recorded in an astronomical catalog:
// either ground truth from the synthetic sky, the initialization catalog
// that seeds inference (the paper initializes from preexisting SDSS
// catalogs), or a point-estimate summary of a fitted variational posterior.
type CatalogEntry struct {
	ID  int
	Pos geom.Pt2

	// ProbGal is the probability the source is a galaxy. Ground-truth
	// entries use exactly 0 or 1.
	ProbGal float64

	// Flux holds the per-band brightness in nanomaggies.
	Flux [NumBands]float64

	// Galaxy shape; meaningful when ProbGal > 0.
	GalDevFrac   float64
	GalAxisRatio float64
	GalAngle     float64 // radians in [0, π)
	GalScale     float64 // half-light radius, degrees

	// Posterior uncertainty summaries (filled by inference; zero for
	// heuristic catalogs, which is exactly the deficiency the paper calls
	// out for non-Bayesian pipelines).
	FluxSD    [NumBands]float64
	ColorSD   [NumColors]float64
	ProbGalSD float64
}

// IsGal reports whether the entry is more likely a galaxy than a star.
func (e *CatalogEntry) IsGal() bool { return e.ProbGal >= 0.5 }

// Colors returns the entry's color vector.
func (e *CatalogEntry) Colors() [NumColors]float64 { return ColorsFromFluxes(e.Flux) }

// InitialParams builds the unconstrained parameter vector that seeds
// per-source optimization from a catalog entry, following the paper's
// task-description initialization: point estimates from the existing
// catalog with deliberately inflated variational variances so the optimizer
// can move.
func InitialParams(e *CatalogEntry) Params {
	var c Constrained
	c.Pos = e.Pos
	c.ProbGal = mathx.Clamp(e.ProbGal, 0.05, 0.95)
	c.GalDevFrac = clampUnit(e.GalDevFrac)
	c.GalAxisRatio = clampUnit(e.GalAxisRatio)
	c.GalAngle = mathx.WrapAngle(e.GalAngle)
	c.GalScale = e.GalScale
	if c.GalScale <= 0 {
		c.GalScale = 1.5 / 3600 // 1.5 arcsec default
	}

	refFlux := math.Max(e.Flux[RefBand], 1e-3)
	colors := safeColors(e.Flux)
	for t := 0; t < NumTypes; t++ {
		// E[flux] = exp(r1 + r2/2) = catalog flux, with loose variance.
		c.R2[t] = 0.25
		c.R1[t] = math.Log(refFlux) - c.R2[t]/2
		for i := 0; i < NumColors; i++ {
			c.C1[t][i] = colors[i]
			c.C2[t][i] = 0.25
		}
	}
	return FromConstrained(c)
}

// Summarize converts a fitted constrained parameter view into a catalog
// entry with posterior uncertainty summaries.
func Summarize(id int, c *Constrained) CatalogEntry {
	e := CatalogEntry{
		ID:           id,
		Pos:          c.Pos,
		ProbGal:      c.ProbGal,
		GalDevFrac:   c.GalDevFrac,
		GalAxisRatio: c.GalAxisRatio,
		GalAngle:     c.GalAngle,
		GalScale:     c.GalScale,
	}
	// Posterior flux moments mix the two types.
	m1s, m2s := FluxMoments(c.R1[Star], c.R2[Star], c.C1[Star], c.C2[Star])
	m1g, m2g := FluxMoments(c.R1[Gal], c.R2[Gal], c.C1[Gal], c.C2[Gal])
	pg := c.ProbGal
	for b := 0; b < NumBands; b++ {
		m1 := (1-pg)*m1s[b] + pg*m1g[b]
		m2 := (1-pg)*m2s[b] + pg*m2g[b]
		e.Flux[b] = m1
		v := math.Max(m2-m1*m1, 0)
		e.FluxSD[b] = math.Sqrt(v)
	}
	// Color uncertainty: mixture of per-type normal variances plus
	// between-type spread.
	for i := 0; i < NumColors; i++ {
		ms, mg := c.C1[Star][i], c.C1[Gal][i]
		mean := (1-pg)*ms + pg*mg
		v := (1-pg)*(c.C2[Star][i]+(ms-mean)*(ms-mean)) +
			pg*(c.C2[Gal][i]+(mg-mean)*(mg-mean))
		e.ColorSD[i] = math.Sqrt(v)
	}
	e.ProbGalSD = math.Sqrt(pg * (1 - pg))
	return e
}

func clampUnit(x float64) float64 {
	if x <= 0 || x >= 1 || math.IsNaN(x) {
		return 0.5
	}
	return x
}

func safeColors(flux [NumBands]float64) [NumColors]float64 {
	var c [NumColors]float64
	for i := 0; i < NumColors; i++ {
		a, b := flux[i], flux[i+1]
		if a <= 0 || b <= 0 {
			c[i] = 0.5 // a typical color when the catalog has no detection
			continue
		}
		c[i] = math.Log(b / a)
	}
	return c
}
