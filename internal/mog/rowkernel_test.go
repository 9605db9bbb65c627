package mog

import (
	"math"
	"testing"

	"celeste/internal/dual"
	"celeste/internal/rng"
)

// buildArgs is one set of Evaluator build inputs.
type buildArgs struct {
	psf                   Mixture
	expP, devP            []ProfComp
	rho, ab, th, logScale float64
	jac                   Jac2
}

// randomBuildArgs draws a random PSF, random profile mixtures, and random
// unconstrained shape parameters — the same ingredients the ELBO hot path
// compiles per (source, image) pair. scaleMul stretches the galaxy.
func randomBuildArgs(r *rng.Source, scaleMul float64) buildArgs {
	nPSF := 1 + r.Intn(3)
	psf := make(Mixture, 0, nPSF)
	for i := 0; i < nPSF; i++ {
		sx := 0.5 + 3*r.Float64()
		sy := 0.5 + 3*r.Float64()
		cr := (2*r.Float64() - 1) * 0.8 * math.Sqrt(sx*sy)
		psf = append(psf, Component{
			Weight: 0.2 + r.Float64(),
			MuX:    r.Normal() * 0.5, MuY: r.Normal() * 0.5,
			Sxx: sx, Sxy: cr, Syy: sy,
		})
	}
	a := buildArgs{psf: psf}
	a.expP = []ProfComp{{Weight: 0.7, Var: 0.3 + r.Float64()}, {Weight: 0.3, Var: 1 + 2*r.Float64()}}
	a.devP = []ProfComp{{Weight: 0.6, Var: 0.2 + 0.5*r.Float64()}, {Weight: 0.4, Var: 2 + 6*r.Float64()}}
	a.logScale = math.Log(scaleMul * 1e-4 * (0.5 + 3*r.Float64()))
	a.jac = Jac2{A11: 1 / 1.1e-4, A22: 1 / 1.1e-4, A12: 0.1 * r.Normal() / 1.1e-4, A21: 0.1 * r.Normal() / 1.1e-4}
	a.rho, a.ab, a.th = r.Normal(), r.Normal(), r.Normal()
	return a
}

func (a buildArgs) evaluator() *Evaluator {
	return NewEvaluator(a.psf, a.expP, a.devP, a.rho, a.ab, a.th, a.logScale, a.jac)
}

// randomEvaluator builds an Evaluator from random build inputs.
func randomEvaluator(r *rng.Source) *Evaluator {
	return randomBuildArgs(r, 1).evaluator()
}

// relClose reports |a-b| <= tol relative to a per-pixel scale floor: lane
// entries are compared against the magnitude of the quantity itself plus the
// density value (entries near zero crossings are dominated by the value
// scale).
func relClose(a, b, scale, tol float64) bool {
	return math.Abs(a-b) <= tol*(math.Abs(a)+math.Abs(b)+scale+1e-300)
}

// TestSweepRowMatchesScalarReference is the differential property test for
// the tentpole: over random evaluators, row geometries, and source offsets,
// every lane of SweepRow must match the retained scalar reference path
// (EvalStar/EvalGal) — value, gradient, and Hessian — within 1e-10 relative.
func TestSweepRowMatchesScalarReference(t *testing.T) {
	r := rng.New(1234)
	var lanes RowLanes
	for trial := 0; trial < 200; trial++ {
		e := randomEvaluator(r)
		w := 1 + r.Intn(80)
		srcX := 20 * r.Normal()
		x0 := -w/2 - r.Intn(10)
		dxs := make([]float64, w)
		for i := range dxs {
			dxs[i] = float64(x0+i) - srcX
		}
		dy := 15 * r.Normal()

		lanes.Resize(w)
		e.SweepRow(&lanes, dxs, dy)

		for i := 0; i < w; i++ {
			star := e.EvalStar(dxs[i], dy)
			gal := e.EvalGal(dxs[i], dy)
			scaleS := math.Abs(star.V)
			scaleG := math.Abs(gal.V)

			if !relClose(lanes.StarV[i], star.V, scaleS, 1e-10) {
				t.Fatalf("trial %d px %d: StarV = %g, ref %g", trial, i, lanes.StarV[i], star.V)
			}
			for k := 0; k < 2; k++ {
				if !relClose(lanes.StarGLane(k)[i], star.G[k], scaleS, 1e-10) {
					t.Fatalf("trial %d px %d: StarG[%d] = %g, ref %g",
						trial, i, k, lanes.StarGLane(k)[i], star.G[k])
				}
			}
			for k := 0; k < 3; k++ {
				if !relClose(lanes.StarHLane(k)[i], star.H[k], scaleS, 1e-10) {
					t.Fatalf("trial %d px %d: StarH[%d] = %g, ref %g",
						trial, i, k, lanes.StarHLane(k)[i], star.H[k])
				}
			}
			// The star lanes only cover the position block; the reference
			// must agree that everything else is exactly zero.
			for k := 2; k < dual.N; k++ {
				if star.G[k] != 0 {
					t.Fatalf("star reference has shape gradient %g at %d", star.G[k], k)
				}
			}

			if !relClose(lanes.GalV[i], gal.V, scaleG, 1e-10) {
				t.Fatalf("trial %d px %d: GalV = %g, ref %g", trial, i, lanes.GalV[i], gal.V)
			}
			for k := 0; k < dual.N; k++ {
				if !relClose(lanes.GalGLane(k)[i], gal.G[k], scaleG, 1e-10) {
					t.Fatalf("trial %d px %d: GalG[%d] = %g, ref %g",
						trial, i, k, lanes.GalGLane(k)[i], gal.G[k])
				}
			}
			for k := 0; k < dual.HessLen; k++ {
				if !relClose(lanes.GalHLane(k)[i], gal.H[k], scaleG, 1e-10) {
					t.Fatalf("trial %d px %d: GalH[%d] = %g, ref %g",
						trial, i, k, lanes.GalHLane(k)[i], gal.H[k])
				}
			}
		}
	}
}

// TestSweepRowValueMatchesEvalComps is the value-path analogue over random
// compiled mixtures and patches: each row swept by a generator carried from
// the patch's first row (and the first row by the one-row SweepRowValue)
// matches EvalComps to 1e-10 relative with identical truncation.
func TestSweepRowValueMatchesEvalComps(t *testing.T) {
	r := rng.New(77)
	var g EGen
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(6)
		m := make(Mixture, 0, n)
		for i := 0; i < n; i++ {
			sx := 0.2 + 4*r.Float64()
			sy := 0.2 + 4*r.Float64()
			cr := (2*r.Float64() - 1) * 0.8 * math.Sqrt(sx*sy)
			m = append(m, Component{
				Weight: 0.1 + 2*r.Float64(),
				MuX:    6 * r.Normal(), MuY: 6 * r.Normal(),
				Sxx: sx, Sxy: cr, Syy: sy,
			})
		}
		comps := CompileInto(nil, m)
		w := 1 + r.Intn(120)
		x0 := -w/2 - r.Intn(8)
		srcX := 10 * r.Normal()
		dxs := make([]float64, w)
		for i := range dxs {
			dxs[i] = float64(x0+i) - srcX
		}
		y0 := 12*r.Normal() - 10
		h := 1 + r.Intn(30)

		var peak float64
		for i := range comps {
			if comps[i].K > peak {
				peak = comps[i].K
			}
		}
		dst := make([]float64, w)
		check := func(label string, dy float64) {
			for i := 0; i < w; i++ {
				ref := EvalComps(comps, dxs[i], dy)
				// Truncation decisions are identical, so the only divergence
				// is recurrence drift: bounded relative to the value itself.
				if math.Abs(dst[i]-ref) > 1e-10*(math.Abs(ref)+1e-30*peak) {
					t.Fatalf("trial %d %s dy=%v px %d: sweep %g, ref %g", trial, label, dy, i, dst[i], ref)
				}
			}
		}
		SweepRowValue(dst, comps, dxs, y0)
		check("one-row", y0)
		g.Reset()
		for y := 0; y < h; y++ {
			g.SweepRowValue(dst, comps, dxs, y0+float64(y))
			check("carried", y0+float64(y))
		}
	}
}

// TestRowSweepDriftBound pins the resync policy of the E generator: over a
// tall, wide patch swept from a reset — hundreds of rows, each far longer
// than the in-row resync period — with sheared components whose interval
// start moves left and right as the rows go by, the carried recurrence must
// track exact exp() within 1e-12 relative at every active pixel, on the
// value path and on the dual path's E slab.
func TestRowSweepDriftBound(t *testing.T) {
	r := rng.New(9)
	const w, h = 400, 320
	dxs := make([]float64, w)
	for i := range dxs {
		dxs[i] = float64(i-w/2) - 0.3
	}
	dst := make([]float64, w)
	var g EGen
	var l RowLanes
	l.Resize(w)
	var moved [2]bool // the interval start moved left, right
	for trial := 0; trial < 12; trial++ {
		// Wide components so hundreds of pixels and rows stay active; the
		// correlation shears the ellipse so i0 walks several pixels a row.
		sx := 300 + 500*r.Float64()
		sy := 300 + 500*r.Float64()
		cr := (2*r.Float64() - 1) * 0.9 * math.Sqrt(sx*sy)
		m := Mixture{{Weight: 1 + r.Float64(), MuX: r.Normal(), MuY: r.Normal(),
			Sxx: sx, Sxy: cr, Syy: sy}}
		comps := CompileInto(nil, m)
		e := &Evaluator{Star: starCompsInto(nil, m)}
		y0 := -float64(h/2) + r.Float64()

		g.Reset()
		e.ResetRows()
		before := g.Resyncs()
		prevI0 := -1
		for y := 0; y < h; y++ {
			dy := y0 + float64(y)
			g.SweepRowValue(dst, comps, dxs, dy)
			e.SweepRowE(&l, dxs, dy)
			c := &e.Star[0]
			d2 := dy - c.MuY
			for i := 0; i < w; i++ {
				ref := EvalComps(comps, dxs[i], dy)
				if ref == 0 {
					if dst[i] != 0 {
						t.Fatalf("trial %d row %d px %d: sweep %g where reference truncates", trial, y, i, dst[i])
					}
				} else if rel := math.Abs(dst[i]-ref) / ref; rel > 1e-12 {
					t.Fatalf("trial %d row %d px %d: value drift %g exceeds 1e-12", trial, y, i, rel)
				}
				d1 := dxs[i] - c.MuX
				qv := c.Q11.V*(d1*d1) + 2*c.Q12.V*(d1*d2) + c.Q22.V*(d2*d2)
				got := l.e[i]
				if sp := l.span[0]; i < sp.i0 || i > sp.i1 {
					got = 0
				}
				if qv > qCutoff {
					if got != 0 {
						t.Fatalf("trial %d row %d px %d: E slab %g where the cutoff rejects", trial, y, i, got)
					}
				} else if rel := math.Abs(got-math.Exp(-0.5*qv)) / math.Exp(-0.5*qv); rel > 1e-12 {
					t.Fatalf("trial %d row %d px %d: E slab drift %g exceeds 1e-12", trial, y, i, rel)
				}
			}
			if sp := l.span[0]; sp.i0 <= sp.i1 && sp.i0 > 0 {
				if prevI0 >= 0 && sp.i0 < prevI0 {
					moved[0] = true
				}
				if prevI0 >= 0 && sp.i0 > prevI0 {
					moved[1] = true
				}
				prevI0 = sp.i0
			}
		}
		// The carry, not resyncs, produced the rows: a component active on
		// every row resyncs at most every carryResync steps plus once per
		// rowResync pixels of each row.
		if got, most := g.Resyncs()-before, int64(h*(1+w/rowResync)); got == 0 || got > most {
			t.Fatalf("trial %d: %d resyncs, want 1..%d", trial, got, most)
		}
	}
	if !moved[0] || !moved[1] {
		t.Fatalf("interval start never moved both ways: left %v, right %v", moved[0], moved[1])
	}
}

// FuzzRowKernelVsEvalComps cross-checks the carried value sweep against the
// scalar reference pixel by pixel over a fuzzer-chosen patch: component
// geometry, the first row's offset, the width and the number of rows.
func FuzzRowKernelVsEvalComps(f *testing.F) {
	f.Add(1.0, 0.5, 0.0, 1.0, 0.3, -0.2, 0.7, 10, 1)
	f.Add(30.0, 25.0, 10.0, 2.0, -5.0, 4.0, 1.7, 64, 40)
	f.Add(0.4, 0.3, -0.15, 0.9, 0.0, 0.0, 0.01, 130, 7)
	// Narrow and correlated: at the widened interval start E underflows to 0
	// while the row ratio overflows, so a chain started there gives NaN.
	f.Add(0.00101711, 0.00293125, 0.0009357, 1.0, 0.3484, 0.0408, -0.1808, 8, 1)
	f.Add(2000.0, 900.0, -1200.0, 1.0, 3.0, -2.0, -120.5, 200, 250)
	f.Fuzz(func(t *testing.T, sxx, syy, sxy, weight, mux, muy, dy float64, w, h int) {
		if w < 1 || w > 512 || h < 1 || h > 300 {
			return
		}
		if !(sxx > 1e-3 && sxx < 1e6 && syy > 1e-3 && syy < 1e6) {
			return
		}
		if !(math.Abs(sxy) < 0.95*math.Sqrt(sxx*syy)) {
			return
		}
		if !(weight > 1e-6 && weight < 1e6) || math.Abs(mux) > 1e3 ||
			math.Abs(muy) > 1e3 || math.Abs(dy) > 1e3 {
			return
		}
		comps := CompileInto(nil, Mixture{{Weight: weight, MuX: mux, MuY: muy,
			Sxx: sxx, Sxy: sxy, Syy: syy}})
		dxs := make([]float64, w)
		for i := range dxs {
			dxs[i] = float64(i-w/2) + 0.25
		}
		dst := make([]float64, w)
		var g EGen
		for y := 0; y < h; y++ {
			g.SweepRowValue(dst, comps, dxs, dy+float64(y))
			for i := 0; i < w; i++ {
				ref := EvalComps(comps, dxs[i], dy+float64(y))
				if ref == 0 {
					if dst[i] != 0 {
						t.Fatalf("row %d px %d: sweep %g where reference truncates", y, i, dst[i])
					}
					continue
				}
				if !(math.Abs(dst[i]-ref) <= 1e-10*math.Abs(ref)) {
					t.Fatalf("row %d px %d: sweep %g, ref %g", y, i, dst[i], ref)
				}
			}
		}
	})
}
