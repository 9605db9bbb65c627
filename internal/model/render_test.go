package model

import (
	"math"
	"math/rand"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/mog"
	"celeste/internal/psf"
)

// refAddExpectedCounts is the per-pixel reference for AddExpectedCounts: the
// whole mixture evaluated at every pixel of the render box.
func refAddExpectedCounts(buf []float64, width, height int, w geom.WCS,
	psf mog.Mixture, e *CatalogEntry, band int, iota float64, nSigma float64) {

	flux := e.Flux[band]
	if flux <= 0 {
		return
	}
	m := SourceMixture(e, w, psf)
	px, py := w.WorldToPix(e.Pos)
	rad := RenderRadiusPx(m, px, py, nSigma)
	rect := geom.PixRect{
		X0: int(math.Floor(px - rad)), Y0: int(math.Floor(py - rad)),
		X1: int(math.Ceil(px+rad)) + 1, Y1: int(math.Ceil(py+rad)) + 1,
	}.Clip(width, height)
	if rect.Empty() {
		return
	}
	amp := flux * iota
	for y := rect.Y0; y < rect.Y1; y++ {
		row := buf[y*width : (y+1)*width]
		for x := rect.X0; x < rect.X1; x++ {
			row[x] += amp * m.Eval(float64(x), float64(y))
		}
	}
}

// renderCase is one source rendered onto one frame.
type renderCase struct {
	name   string
	w, h   int
	wcs    geom.WCS
	psf    mog.Mixture
	e      CatalogEntry
	nSigma float64
}

// checkRenderBitwise renders c with AddExpectedCounts and the reference onto
// the same sky-filled buffer and fails on the first pixel whose bits differ.
// It returns the number of nonzero pixels the source added.
func checkRenderBitwise(t *testing.T, c renderCase) int {
	t.Helper()
	got := make([]float64, c.w*c.h)
	for i := range got {
		got[i] = 40 + float64(i%7)/3 // a sky with varied low bits
	}
	want := append([]float64(nil), got...)
	sky := append([]float64(nil), got...)
	AddExpectedCounts(got, c.w, c.h, c.wcs, c.psf, &c.e, RefBand, 90, c.nSigma)
	refAddExpectedCounts(want, c.w, c.h, c.wcs, c.psf, &c.e, RefBand, 90, c.nSigma)
	touched := 0
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: pixel (%d, %d) = %v (%#x), reference %v (%#x)", c.name,
				i%c.w, i/c.w, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
		if got[i] != sky[i] {
			touched++
		}
	}
	return touched
}

// shearedWCS returns a WCS of the given pixel scale (arcsec) rotated by theta
// and sheared by s, with pixel aspect q.
func shearedWCS(scaleArcsec, theta, s, q float64) geom.WCS {
	k := scaleArcsec / 3600
	co, si := math.Cos(theta), math.Sin(theta)
	// CD = k · R(theta) · [[1, s], [0, q]].
	return geom.WCS{
		CD11: k * co, CD12: k * (co*s - si*q),
		CD21: k * si, CD22: k * (si*s + co*q),
	}
}

// fittedPSF returns a correlated, off-centre PSF of the shape a fit to a
// real image gives: its components carry Sxy ≠ 0 and nonzero means, which
// psf.Default's do not.
func fittedPSF(*testing.T) mog.Mixture {
	return mog.Mixture{
		{Weight: 0.7, MuX: 0.3, Sxx: 1.4, Sxy: 0.5, Syy: 1.0},
		{Weight: 0.3, MuX: -0.2, MuY: 0.4, Sxx: 5, Sxy: -1.5, Syy: 3.5},
	}
}

func galaxyAt(wcs geom.WCS, px, py, dev, ab, angle, scaleArcsec float64) CatalogEntry {
	return CatalogEntry{
		Pos: wcs.PixToWorld(px, py), ProbGal: 1,
		Flux:       [NumBands]float64{3, 7, 11, 9, 5},
		GalDevFrac: dev, GalAxisRatio: ab, GalAngle: angle, GalScale: scaleArcsec / 3600,
	}
}

func TestRenderBitwise(t *testing.T) {
	simple := geom.NewSimpleWCS(0, 0, 1.0/3600)
	sheared := shearedWCS(0.9, 0.7, 0.35, 1.3)
	fitted := fittedPSF(t)
	zeroHalo := mog.Mixture{{Weight: 1, Sxx: 1.8, Syy: 1.8}, {Weight: 0, Sxx: 9, Syy: 9}}
	star := func(wcs geom.WCS, px, py float64) CatalogEntry {
		return CatalogEntry{Pos: wcs.PixToWorld(px, py), Flux: [NumBands]float64{3, 7, 11, 9, 5}}
	}

	var cases []renderCase
	add := func(name string, w, h int, wcs geom.WCS, p mog.Mixture, e CatalogEntry) {
		for _, ns := range []float64{1.5, 5.5, 6} {
			cases = append(cases, renderCase{name, w, h, wcs, p, e, ns})
		}
	}
	for _, p := range []struct {
		name string
		psf  mog.Mixture
	}{{"default", psf.Default(1.3)}, {"fitted", fitted}, {"zero-halo", zeroHalo}} {
		for _, f := range []struct {
			name string
			wcs  geom.WCS
		}{{"simple", simple}, {"sheared", sheared}} {
			pre := p.name + "/" + f.name + "/"
			add(pre+"star", 48, 40, f.wcs, p.psf, star(f.wcs, 20.3, 17.8))
			for _, dev := range []float64{0, 0.5, 1} {
				add(pre+"galaxy-dev", 48, 40, f.wcs, p.psf, galaxyAt(f.wcs, 23.6, 19.1, dev, 0.6, 0.9, 2.5))
			}
			add(pre+"axis-ratio-clamp", 48, 40, f.wcs, p.psf, galaxyAt(f.wcs, 23.6, 19.1, 0.3, 0.001, 1.2, 6))
			add(pre+"scale-clamp", 48, 40, f.wcs, p.psf, galaxyAt(f.wcs, 23.6, 19.1, 0.7, 0.5, 0.2, 0))
			add(pre+"larger-than-frame", 31, 53, f.wcs, p.psf, galaxyAt(f.wcs, 15, 26, 0.4, 0.8, 2.1, 60))
			// Boxes clipped on each edge and corner, and sources just off it.
			for _, at := range [][2]float64{
				{0.2, 20}, {47.6, 20}, {24, 0.4}, {24, 39.3},
				{-3.5, -2.2}, {50.1, 42.7}, {-6, 41}, {52, -5},
			} {
				add(pre+"clipped-star", 48, 40, f.wcs, p.psf, star(f.wcs, at[0], at[1]))
				add(pre+"clipped-galaxy", 48, 40, f.wcs, p.psf, galaxyAt(f.wcs, at[0], at[1], 0.5, 0.3, 0.4, 3))
			}
			add(pre+"one-row", 57, 1, f.wcs, p.psf, galaxyAt(f.wcs, 30, 0.4, 1, 0.2, 0.1, 4))
			add(pre+"one-column", 1, 45, f.wcs, p.psf, star(f.wcs, 0.3, 22))
		}
	}
	for _, c := range cases {
		if checkRenderBitwise(t, c) == 0 && c.nSigma > 1.5 {
			// Every case puts light on the frame; a renderer that adds
			// nothing is not tested by agreeing with one that adds nothing.
			t.Errorf("%s (nSigma %v): no pixel changed", c.name, c.nSigma)
		}
	}
}

// TestPrepareComp pins the two ways AddExpectedCounts avoids work without
// changing a bit, which the bitwise tests cannot see: it drops a zero-weight
// component, and it bounds a component to its exact-underflow rows. A
// component the closed form cannot be trusted on covers the whole box.
func TestPrepareComp(t *testing.T) {
	rect := geom.PixRect{X0: 0, Y0: 0, X1: 64, Y1: 64}
	if _, ok := prepareComp(mog.Component{Weight: 0, MuX: 30, MuY: 30, Sxx: 4, Syy: 4}, rect); ok {
		t.Error("zero-weight component kept")
	}
	rc, ok := prepareComp(mog.Component{Weight: 1, MuX: 30, MuY: 30.5, Sxx: 1, Sxy: 0.3, Syy: 0.25}, rect)
	if !ok || !rc.bounded {
		t.Fatalf("well-formed component: kept %v, bounded %v", ok, rc.bounded)
	}
	// √(1600·0.25) = 20 rows either side of 30.5: [10, 51] padded by one.
	if rc.y0 != 9 || rc.y1 != 53 {
		t.Errorf("rows [%d, %d), want [9, 53)", rc.y0, rc.y1)
	}
	if _, ok := prepareComp(mog.Component{Weight: 1, MuX: 30, MuY: 200, Sxx: 1, Syy: 1}, rect); ok {
		t.Error("component whose underflow interval misses the box kept")
	}
	for _, c := range []mog.Component{
		{Weight: math.Inf(1), Sxx: 1, Syy: 1},
		{Weight: 1, Sxx: 1, Syy: 1, Sxy: 1},
		{Weight: 1, Sxx: 1e-120, Syy: 1},
		{Weight: 1, MuX: math.NaN(), Sxx: 1, Syy: 1},
	} {
		rc, ok := prepareComp(c, rect)
		if !ok || rc.bounded || rc.y0 != rect.Y0 || rc.y1 != rect.Y1 {
			t.Errorf("%+v: kept %v, bounded %v, rows [%d, %d); want the whole box", c, ok, rc.bounded, rc.y0, rc.y1)
		}
	}
}

// FuzzRenderBitwise renders one source on a random frame, WCS and two-
// component PSF and requires AddExpectedCounts to match the per-pixel
// reference bit for bit.
// TestRenderAllocs holds AddExpectedCounts to its allocations per call: the
// source's mixture (a galaxy's profile list and convolution too), the
// prepared components and one row buffer, which also holds each
// component's exp arguments.
func TestRenderAllocs(t *testing.T) {
	wcs := geom.NewSimpleWCS(0, 0, 1.1e-4)
	p := psf.Default(1.3)
	buf := make([]float64, 128*128)
	star := CatalogEntry{Pos: wcs.PixToWorld(60.3, 70.2), Flux: [NumBands]float64{3, 7, 11, 9, 5}}
	gal := galaxyAt(wcs, 50.5, 40.2, 0.3, 0.6, 0.8, 1.8)
	for _, c := range []struct {
		name string
		e    CatalogEntry
		max  float64
	}{{"star", star, 3}, {"galaxy", gal, 11}} {
		got := testing.AllocsPerRun(20, func() {
			AddExpectedCounts(buf, 128, 128, wcs, p, &c.e, RefBand, 100, 5.5)
		})
		if got > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, got, c.max)
		}
	}
}

// BenchmarkAddExpectedCounts renders one band of a frame the size of the
// bench's wide_shallow fields: 128×128 pixels at 0.396″, a 1.3-pixel PSF,
// and the 25 sources that fall within 50 pixels of it at 40,000 sources per
// square degree, half of them galaxies of ~1.8″ scale.
func BenchmarkAddExpectedCounts(b *testing.B) {
	const side = 128
	wcs := geom.NewSimpleWCS(0, 0, 1.1e-4)
	p := psf.Default(1.3)
	rng := rand.New(rand.NewSource(1))
	srcs := make([]CatalogEntry, 25)
	for i := range srcs {
		px, py := -50+(side+100)*rng.Float64(), -50+(side+100)*rng.Float64()
		if i%2 == 0 {
			srcs[i] = galaxyAt(wcs, px, py, rng.Float64(), 0.3+0.7*rng.Float64(),
				math.Pi*rng.Float64(), 1.8*math.Exp(0.45*rng.NormFloat64()))
		} else {
			srcs[i] = CatalogEntry{Pos: wcs.PixToWorld(px, py)}
		}
		for band := range srcs[i].Flux {
			srcs[i].Flux[band] = 20 * math.Exp(rng.NormFloat64())
		}
	}
	buf := make([]float64, side*side)
	for b.Loop() {
		for i := range srcs {
			AddExpectedCounts(buf, side, side, wcs, p, &srcs[i], RefBand, 100, 5.5)
		}
	}
}

func FuzzRenderBitwise(f *testing.F) {
	f.Add(uint8(48), uint8(40), 20.3, 17.8, false, 0.5, 0.6, 0.9, 2.5, 0.0, 0.0, 1.0, 1.3, 0.0, 0.15, 0.0, 5.5)
	f.Add(uint8(31), uint8(53), 15.0, 26.0, true, 0.4, 0.8, 2.1, 60.0, 0.7, 0.35, 1.3, 1.1, 0.4, 0.2, 0.5, 6.0)
	f.Add(uint8(48), uint8(40), -3.5, 41.2, true, 1.0, 0.001, 1.2, 0.0, -2.0, -1.5, 0.4, 0.6, -0.9, 0.0, -2.0, 6.0)
	f.Add(uint8(1), uint8(70), 0.3, 35.0, true, 0.0, 0.05, 3.0, 8.0, 1.0, 4.0, 4.0, 3.0, 0.95, 0.9, 3.0, 1.5)
	f.Fuzz(func(t *testing.T, w, h uint8, px, py float64, gal bool, dev, ab, angle, scale,
		theta, shear, aspect, sigma, rho, haloW, haloMu, nSigma float64) {
		for _, v := range []float64{px, py, dev, ab, angle, scale, theta, shear, aspect, sigma, rho, haloW, haloMu, nSigma} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		if math.Abs(px) > 500 || math.Abs(py) > 500 || math.Abs(ab) > 50 || math.Abs(angle) > 100 ||
			math.Abs(scale) > 300 || math.Abs(theta) > 100 || math.Abs(shear) > 5 ||
			aspect < 0.2 || aspect > 5 || sigma < 0.3 || sigma > 6 || math.Abs(rho) >= 1 ||
			haloW < 0 || haloW > 1 || math.Abs(haloMu) > 5 || nSigma < 0.5 || nSigma > 12 {
			return
		}
		s2 := sigma * sigma
		p := mog.Mixture{
			{Weight: 1 - haloW, Sxx: s2, Sxy: rho * s2 * 0.8, Syy: 0.8 * 0.8 * s2},
			{Weight: haloW, MuX: haloMu, MuY: -haloMu / 2, Sxx: 6 * s2, Sxy: -rho * 3 * s2, Syy: 5 * s2},
		}
		wcs := shearedWCS(1, theta, shear, aspect)
		e := CatalogEntry{Pos: wcs.PixToWorld(px, py), Flux: [NumBands]float64{3, 7, 11, 9, 5}}
		if gal {
			e = galaxyAt(wcs, px, py, dev, ab, angle, scale)
		}
		checkRenderBitwise(t, renderCase{"fuzz", 1 + int(w)%96, 1 + int(h)%96, wcs, p, e, nSigma})
	})
}
