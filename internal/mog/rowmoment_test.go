package mog

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/dual"
	"celeste/internal/rng"
)

// momentCase is one differential comparison of the moment kernel against the
// lane oracle: evaluators built from the same parameters (second order for
// the full tier and, on its own row state, the oracle; first order for the
// gradient tier), a w x h pixel block at a sub-pixel source offset, and
// per-pixel weights.
type momentCase struct {
	full, oracle, first *Evaluator
	w, h                int
	x0, y0              float64 // offsets of the block's first pixel from the source
	ws, wg              []float64
}

// normClose reports max|got-want| <= tol * max|want| (norm-wise agreement).
func normClose(got, want []float64, tol float64) (bool, float64, float64) {
	var diff, norm float64
	for i := range want {
		diff = math.Max(diff, math.Abs(got[i]-want[i]))
		norm = math.Max(norm, math.Abs(want[i]))
	}
	return diff <= tol*norm, diff, norm
}

// check runs both kernels over the block and compares: the weighted lane
// sums Σ ω·∇g, Σ ω·∇²g of SweepRow against MomentGrad/MomentHess, the value
// lanes and the accepted pixel sets of all three sweeps, and the gradient
// tier's result against the full tier's.
func (mc *momentCase) check(t *testing.T, label string) {
	t.Helper()
	e := mc.full
	w, h := mc.w, mc.h
	dxs := make([]float64, w)
	for i := range dxs {
		dxs[i] = mc.x0 + float64(i)
	}

	var oracle, lg, le RowLanes
	oracle.Resize(w)
	lg.Resize(w)
	le.Resize(w)
	var m4, m2 Moments
	m4.Reset(e)
	m2.Reset(mc.first)

	var wantG [dual.N]float64
	var wantH [dual.HessLen]float64
	for y := 0; y < h; y++ {
		dy := mc.y0 + float64(y)
		ws, wg := mc.ws[y*w:(y+1)*w], mc.wg[y*w:(y+1)*w]

		mc.oracle.SweepRow(&oracle, dxs, dy)
		for i := 0; i < w; i++ {
			for k := 0; k < 2; k++ {
				wantG[k] += ws[i] * oracle.StarGLane(k)[i]
			}
			for k := 0; k < 3; k++ {
				wantH[k] += ws[i] * oracle.StarHLane(k)[i]
			}
			for k := 0; k < dual.N; k++ {
				wantG[k] += wg[i] * oracle.GalGLane(k)[i]
			}
			for k := 0; k < dual.HessLen; k++ {
				wantH[k] += wg[i] * oracle.GalHLane(k)[i]
			}
		}

		e.SweepRowGrad(&lg, dxs, dy)
		e.AccumRow(&m4, &lg, ws, wg, dxs, dy, true)
		mc.first.SweepRowE(&le, dxs, dy)
		mc.first.AccumRow(&m2, &le, ws, wg, dxs, dy, false)

		// Same truncation decisions: the value lanes of the three sweeps are
		// sums of the same accepted terms, and a slab entry is nonzero
		// exactly where the scalar cutoff expression accepts the pixel.
		for i := 0; i < w; i++ {
			if lg.StarV[i] != oracle.StarV[i] || lg.GalV[i] != oracle.GalV[i] ||
				le.StarV[i] != oracle.StarV[i] || le.GalV[i] != oracle.GalV[i] {
				t.Fatalf("%s: row %d px %d: value lanes differ: oracle (%g, %g), grad (%g, %g), E (%g, %g)",
					label, y, i, oracle.StarV[i], oracle.GalV[i], lg.StarV[i], lg.GalV[i], le.StarV[i], le.GalV[i])
			}
		}
		comps := append(append([]DualComp(nil), e.Star...), e.Gal...)
		for ci := range comps {
			c := &comps[ci]
			d2 := dy - c.MuY
			for _, l := range []*RowLanes{&lg, &le} {
				sp := l.span[ci]
				for i := 0; i < w; i++ {
					d1 := dxs[i] - c.MuX
					qv := c.Q11.V*(d1*d1) + 2*c.Q12.V*(d1*d2) + c.Q22.V*(d2*d2)
					accepted := qv <= qCutoff && c.K.V != 0
					inSlab := i >= sp.i0 && i <= sp.i1 && l.e[ci*w+i] != 0
					if accepted != inSlab {
						t.Fatalf("%s: row %d comp %d px %d: q=%v accepted=%v but slab says %v",
							label, y, ci, i, qv, accepted, inSlab)
					}
				}
			}
		}
	}

	var gotG, gotG2 [dual.N]float64
	var gotH [dual.HessLen]float64
	e.MomentGrad(&m4, &gotG)
	e.MomentHess(&m4, &gotH)
	mc.first.MomentGrad(&m2, &gotG2)

	// Norm-wise per block: the position entries carry the world-to-pixel
	// Jacobian (~1e4 per coordinate) and would otherwise mask the shape ones.
	var gotSS, wantSS, gotSP, wantSP []float64
	for k := 2; k < dual.N; k++ {
		base := k * (k + 1) / 2
		gotSP, wantSP = append(gotSP, gotH[base:base+2]...), append(wantSP, wantH[base:base+2]...)
		gotSS, wantSS = append(gotSS, gotH[base+2:base+k+1]...), append(wantSS, wantH[base+2:base+k+1]...)
	}
	for _, blk := range []struct {
		name      string
		got, want []float64
	}{
		{"position gradient", gotG[:2], wantG[:2]},
		{"shape gradient", gotG[2:], wantG[2:]},
		{"position-position Hessian", gotH[:3], wantH[:3]},
		{"shape-position Hessian", gotSP, wantSP},
		{"shape-shape Hessian", gotSS, wantSS},
	} {
		if ok, d, n := normClose(blk.got, blk.want, 1e-10); !ok {
			t.Errorf("%s: moment %s off by %g (norm %g)\n got %v\nwant %v", label, blk.name, d, n, blk.got, blk.want)
		}
	}
	// Both tiers take the gradient from the same degree ≤ 2 accumulators.
	if ok, d, n := normClose(gotG2[:], gotG[:], 1e-14); !ok {
		t.Errorf("%s: gradient tier off the full tier by %g (norm %g)", label, d, n)
	}
}

// randomMomentCase draws an evaluator pair, a block geometry whose rows
// cross the cutoff boundary (and, for wide galaxies, the 64-px resync), and
// signed random weights.
func randomMomentCase(r *rng.Source) *momentCase {
	scaleMul := 1.0
	if r.Intn(4) == 0 {
		scaleMul = 8 // wide galaxy: active spans longer than the resync period
	}
	mc := &momentCase{w: 1 + r.Intn(150), h: 1 + r.Intn(12)}
	mc.build(randomBuildArgs(r, scaleMul))
	mc.x0 = float64(-mc.w/2-r.Intn(10)) - r.Float64()
	mc.y0 = float64(-mc.h/2-r.Intn(6)) - r.Float64()
	mc.drawWeights(r)
	return mc
}

// build sets the evaluator pair from one set of build inputs.
func (mc *momentCase) build(a buildArgs) {
	mc.full = a.evaluator()
	mc.oracle = a.evaluator()
	mc.first = &Evaluator{}
	mc.first.BuildGrad(a.psf, a.expP, a.devP, a.rho, a.ab, a.th, a.logScale, a.jac)
}

// drawWeights fills signed random per-pixel weights for the w x h block.
func (mc *momentCase) drawWeights(r *rng.Source) {
	mc.ws = make([]float64, mc.w*mc.h)
	mc.wg = make([]float64, mc.w*mc.h)
	for i := range mc.ws {
		mc.ws[i] = r.Normal()
		mc.wg[i] = r.Normal()
	}
}

// TestHessianLanesSizedOnlyBySweepRow pins the scratch-memory split: Resize
// and the production sweeps leave the 3w + 21w Hessian slabs unallocated;
// only the lane oracle grows them.
func TestHessianLanesSizedOnlyBySweepRow(t *testing.T) {
	e := randomEvaluator(rng.New(5))
	const w = 40
	dxs := make([]float64, w)
	for i := range dxs {
		dxs[i] = float64(i - w/2)
	}
	var l RowLanes
	l.Resize(w)
	e.SweepRowGrad(&l, dxs, 0.5)
	e.SweepRowE(&l, dxs, 0.5)
	if l.StarH != nil || l.GalH != nil {
		t.Fatalf("production sweeps sized Hessian lanes: %d star, %d galaxy", len(l.StarH), len(l.GalH))
	}
	e.SweepRow(&l, dxs, 0.5)
	if len(l.StarH) != 3*w || len(l.GalH) != dual.HessLen*w {
		t.Fatalf("SweepRow sized Hessian lanes %d/%d, want %d/%d", len(l.StarH), len(l.GalH), 3*w, dual.HessLen*w)
	}
}

// TestBuildGradMatchesBuild pins the first-order build to the second-order
// one: every value and gradient entry of every component agrees to 1e-15,
// and the whole set of row-sweep constants bit for bit.
func TestBuildGradMatchesBuild(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 100; trial++ {
		mc := randomMomentCase(r)
		if len(mc.first.Gal) != len(mc.full.Gal) || len(mc.first.Star) != len(mc.full.Star) {
			t.Fatalf("trial %d: component counts differ", trial)
		}
		for ci := range mc.full.Gal {
			a, b := &mc.full.Gal[ci], &mc.first.Gal[ci]
			pairs := [][2]*dual.Dual{{&a.K, &b.K}, {&a.Q11, &b.Q11}, {&a.Q12, &b.Q12}, {&a.Q22, &b.Q22}}
			for pi, p := range pairs {
				if math.Abs(p[0].V-p[1].V) > 1e-15*math.Abs(p[0].V) {
					t.Fatalf("trial %d comp %d dual %d: V %v vs %v", trial, ci, pi, p[1].V, p[0].V)
				}
				for k := 0; k < dual.N; k++ {
					if math.Abs(p[0].G[k]-p[1].G[k]) > 1e-15*(math.Abs(p[0].G[k])+math.Abs(p[0].V)) {
						t.Fatalf("trial %d comp %d dual %d: G[%d] %v vs %v", trial, ci, pi, k, p[1].G[k], p[0].G[k])
					}
				}
			}
			if a.Row != b.Row || a.MuX != b.MuX || a.MuY != b.MuY {
				t.Fatalf("trial %d comp %d: row constants differ", trial, ci)
			}
		}
	}
}

// TestMomentSweepMatchesLanes is the differential property test of the moment
// kernel: over random PSFs, shapes, sub-pixel centres and weights, the
// moment-assembled Σ ω·∇g and Σ ω·∇²g match the same sums taken over the
// SweepRow lane oracle to 1e-10 norm-wise, with identical truncation.
func TestMomentSweepMatchesLanes(t *testing.T) {
	r := rng.New(2718)
	for trial := 0; trial < 150; trial++ {
		randomMomentCase(r).check(t, fmt.Sprintf("trial %d", trial))
	}
}

// FuzzMomentSweepVsLanes drives the same comparison from fuzzer-chosen
// shape, centre and geometry.
func FuzzMomentSweepVsLanes(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 0.3, -0.2, 20, 6, uint64(1))
	f.Add(1.5, -2.0, 1.0, 8.0, 0.5, 0.5, 150, 3, uint64(2))
	f.Add(-3.0, 2.5, -0.7, 0.3, 0.01, 0.99, 7, 12, uint64(3))
	f.Fuzz(func(t *testing.T, rho, ab, th, scalePx, fx, fy float64, w, h int, seed uint64) {
		if w < 1 || w > 200 || h < 1 || h > 16 {
			return
		}
		for _, v := range []float64{rho, ab, th} {
			if math.IsNaN(v) || math.Abs(v) > 8 {
				return
			}
		}
		if !(scalePx > 0.05 && scalePx < 30) || !(fx >= 0 && fx < 1) || !(fy >= 0 && fy < 1) {
			return
		}
		mc := &momentCase{w: w, h: h, x0: float64(-w/2) - fx, y0: float64(-h/2) - fy}
		a := buildArgs{psf: testPSF(), rho: rho, ab: ab, th: th,
			logScale: math.Log(scalePx * 1.1e-4), jac: Jac2{A11: 1 / 1.1e-4, A22: 1 / 1.1e-4}}
		a.expP, a.devP = testProfiles()
		mc.build(a)
		mc.drawWeights(rng.New(seed))
		mc.check(t, "fuzz")
	})
}
