// Package psf models the point-spread function of one image as a small
// mixture of 2-D Gaussians. Every survey uses Default, an SDSS-like core plus
// halo whose core width is set per (run, band); FWHMPx measures a mixture's
// width.
package psf

import (
	"math"

	"celeste/internal/mog"
)

// Default returns a plausible SDSS-like double-Gaussian PSF: a sharp core
// holding most of the light plus a wide halo, with the core sigma given in
// pixels.
func Default(coreSigmaPx float64) mog.Mixture {
	s2 := coreSigmaPx * coreSigmaPx
	return mog.Mixture{
		{Weight: 0.85, Sxx: s2, Syy: s2},
		{Weight: 0.15, Sxx: 6 * s2, Syy: 6 * s2},
	}
}

// FWHMPx returns the approximate full width at half maximum of the PSF in
// pixels, measured numerically along the x axis through the peak.
func FWHMPx(m mog.Mixture) float64 {
	peak := m.Eval(0, 0)
	if peak <= 0 {
		return 0
	}
	half := peak / 2
	// March outward until density falls below half the peak.
	const step = 0.01
	for r := step; r < 100; r += step {
		if m.Eval(r, 0) < half {
			return 2 * r
		}
	}
	return math.NaN()
}
