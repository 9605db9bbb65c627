package psf

import (
	"math"
	"testing"
)

func TestDefaultPSFShape(t *testing.T) {
	m := Default(1.0)
	if math.Abs(m.TotalWeight()-1) > 1e-12 {
		t.Errorf("weight = %v", m.TotalWeight())
	}
	// FWHM of a sigma=1 Gaussian is 2.355; the halo widens it slightly.
	fw := FWHMPx(m)
	if fw < 2.3 || fw > 3.2 {
		t.Errorf("FWHM = %v", fw)
	}
}

func TestFWHMScalesWithSigma(t *testing.T) {
	a := FWHMPx(Default(1.0))
	b := FWHMPx(Default(2.0))
	if math.Abs(b/a-2) > 0.05 {
		t.Errorf("FWHM ratio = %v, want 2", b/a)
	}
}
