//go:build amd64 || 386

// The bitwise tests run where the compiler does not fuse multiply-adds
// (amd64 at its baseline, 386): there the Go reference below and the
// production lane pass perform exactly the same IEEE operations.

package mog

import (
	"math"
	"testing"

	"celeste/internal/dual"
	"celeste/internal/rng"
)

// The references below are the pass-A sweeps as one fused loop per
// component: E from a generator of their own (the shared E generator code,
// with its own state), then every lane term of an accepted pixel in the same
// loop. They pin the lane split — the serial E loop, then the lane pass — to
// the fused loop it replaced.

// sweepCompsEFused is the value-only pass A with the value lanes added in
// the E loop.
func sweepCompsEFused(g *EGen, l *RowLanes, base int, comps []DualComp, dst, dxs []float64, dy float64) {
	for ci := range comps {
		c := &comps[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		erow, _, i0, i1, ok := g.eRow(l, base+ci, c, dxs, dy)
		if !ok {
			continue
		}
		for i := i0; i <= i1; i++ {
			if ev := erow[i]; ev != 0 {
				dst[i] += kv * ev
			}
		}
	}
}

// sweepStarGradFused is the star half of pass A as one fused loop per
// component.
func (e *Evaluator) sweepStarGradFused(g *EGen, l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	sv := l.StarV
	sg0, sg1 := l.StarG[:w], l.StarG[w:2*w]

	for ci := range e.Star {
		c := &e.Star[ci]
		kv := c.K.V
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		erow, d2, i0, i1, ok := g.eRow(l, ci, c, dxs, dy)
		if !ok {
			continue
		}
		for i := i0; i <= i1; i++ {
			ev := erow[i]
			if ev == 0 {
				continue
			}
			d1 := dxs[i] - c.MuX
			tq1 := 2 * (q11*d1 + q12*d2)
			tq2 := 2 * (q12*d1 + q22*d2)
			qg0 := tq1*g10 + tq2*g20
			qg1 := tq1*g11 + tq2*g21
			ke := kv * ev
			sv[i] += ke
			sg0[i] -= 0.5 * ke * qg0
			sg1[i] -= 0.5 * ke * qg1
		}
	}
}

// sweepGalGradFused is the galaxy pass A as one fused loop per component —
// E, cutoff mask and lane updates together — the reference the two-loop
// sweepGalGrad must match bit for bit.
func (e *Evaluator) sweepGalGradFused(g *EGen, l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	nStar := len(e.Star)
	gv := l.GalV
	var gG [dual.N][]float64
	for k := 0; k < dual.N; k++ {
		gG[k] = l.GalG[k*w : (k+1)*w]
	}

	// Row-hoisted shape-gradient coefficients: qg_k = sa*s11 + sb*s12 + sc.
	var sa, sb, sc [dual.N]float64

	for ci := range e.Gal {
		c := &e.Gal[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		erow, d2, i0, i1, ok := g.eRow(l, nStar+ci, c, dxs, dy)
		if !ok {
			continue
		}
		s22 := d2 * d2
		halfkv := 0.5 * kv
		for k := 2; k < dual.N; k++ {
			sa[k] = c.Q11.G[k]
			sb[k] = 2 * c.Q12.G[k]
			sc[k] = c.Q22.G[k] * s22
		}
		for i := i0; i <= i1; i++ {
			ev := erow[i]
			if ev == 0 {
				continue
			}
			d1 := dxs[i] - c.MuX
			s11, s12 := d1*d1, d1*d2
			tq1 := 2 * (q11*d1 + q12*d2)
			tq2 := 2 * (q12*d1 + q22*d2)
			qg0 := tq1*g10 + tq2*g20
			qg1 := tq1*g11 + tq2*g21

			ke := kv * ev
			gv[i] += ke
			gG[0][i] -= 0.5 * ke * qg0
			gG[1][i] -= 0.5 * ke * qg1
			for k := 2; k < dual.N; k++ {
				t := c.K.G[k] - halfkv*(sa[k]*s11+sb[k]*s12+sc[k])
				gG[k][i] += ev * t
			}
		}
	}
}

// sweepRowGradFused is SweepRowGrad with the fused star and galaxy passes,
// taking E from g.
func (e *Evaluator) sweepRowGradFused(g *EGen, l *RowLanes, dxs []float64, dy float64) {
	clearFloats(l.StarV)
	clearFloats(l.StarG)
	clearFloats(l.GalV)
	clearFloats(l.GalG)
	n := len(e.Star) + len(e.Gal)
	l.growE(n)
	g.begin(n)
	if l.w == 0 {
		return
	}
	e.sweepStarGradFused(g, l, dxs, dy)
	e.sweepGalGradFused(g, l, dxs, dy)
}

// sweepRowEFused is SweepRowE with the fused value loops, taking E from g.
func (e *Evaluator) sweepRowEFused(g *EGen, l *RowLanes, dxs []float64, dy float64) {
	clearFloats(l.StarV)
	clearFloats(l.GalV)
	n := len(e.Star) + len(e.Gal)
	l.growE(n)
	g.begin(n)
	if l.w == 0 {
		return
	}
	sweepCompsEFused(g, l, 0, e.Star, l.StarV, dxs, dy)
	sweepCompsEFused(g, l, len(e.Star), e.Gal, l.GalV, dxs, dy)
}

// bitwiseCover counts the span shapes a bitwise comparison has exercised.
type bitwiseCover struct {
	oddSpans, clipLo, clipHi, allRejected, rejectedInSpan, zeroK int
}

// checkPatchBitwise sweeps rows rows of a patch, from y-offset y0 down,
// with SweepRowGrad into got and with the fused reference into want (both
// reused across rows, as a sweep worker reuses its lanes), each from a
// reset, and fails unless every value and gradient lane, the E slab and the
// span table agree bit for bit on every row; then the same for SweepRowE's
// value lanes, slab and spans.
func checkPatchBitwise(t *testing.T, label string, e *Evaluator, got, want *RowLanes,
	dxs []float64, y0 float64, rows int, cov *bitwiseCover) {
	t.Helper()
	w := len(dxs)
	got.Resize(w)
	want.Resize(w)
	var ref EGen
	e.ResetRows()
	for y := 0; y < rows; y++ {
		dy := y0 + float64(y)
		e.SweepRowGrad(got, dxs, dy)
		e.sweepRowGradFused(&ref, want, dxs, dy)
		compareLanes(t, label+" SweepRowGrad", dy, got, want, true)
		if cov != nil {
			cov.count(e, got)
		}
	}
	e.ResetRows()
	ref.Reset()
	for y := 0; y < rows; y++ {
		dy := y0 + float64(y)
		e.SweepRowE(got, dxs, dy)
		e.sweepRowEFused(&ref, want, dxs, dy)
		compareLanes(t, label+" SweepRowE", dy, got, want, false)
	}
}

// compareLanes fails unless got and want hold bitwise the same value lanes,
// E slab and span table, and with grad the same gradient lanes.
func compareLanes(t *testing.T, label string, dy float64, got, want *RowLanes, grad bool) {
	t.Helper()
	type slab struct {
		name      string
		got, want []float64
	}
	lanes := []slab{{"StarV", got.StarV, want.StarV}, {"GalV", got.GalV, want.GalV}, {"E", got.e, want.e}}
	if grad {
		lanes = append(lanes, slab{"StarG", got.StarG, want.StarG}, slab{"GalG", got.GalG, want.GalG})
	}
	for _, c := range lanes {
		if i, ok := sameBits(c.got, c.want); !ok {
			if i < 0 {
				t.Fatalf("%s: %s lengths %d, reference %d", label, c.name, len(c.got), len(c.want))
			}
			t.Fatalf("%s dy=%v w=%d: %s[%d] = %v (%#x), fused reference %v (%#x)", label, dy, got.w,
				c.name, i, c.got[i], math.Float64bits(c.got[i]), c.want[i], math.Float64bits(c.want[i]))
		}
	}
	if len(got.span) != len(want.span) {
		t.Fatalf("%s: span table length %d, reference %d", label, len(got.span), len(want.span))
	}
	for i := range got.span {
		if got.span[i] != want.span[i] {
			t.Fatalf("%s dy=%v: span[%d] = %v, reference %v", label, dy, i, got.span[i], want.span[i])
		}
	}
}

// count adds the galaxy spans of the row l holds to the tallies.
func (cov *bitwiseCover) count(e *Evaluator, l *RowLanes) {
	w := l.w
	nStar := len(e.Star)
	for ci := range e.Gal {
		if e.Gal[ci].K.V == 0 {
			cov.zeroK++
			continue
		}
		sp := l.span[nStar+ci]
		if sp.i1 < sp.i0 {
			continue
		}
		if (sp.i1-sp.i0+1)%2 == 1 {
			cov.oddSpans++
		}
		if sp.i0 == 0 {
			cov.clipLo++
		}
		if sp.i1 == w-1 {
			cov.clipHi++
		}
		accepted := 0
		for i := sp.i0; i <= sp.i1; i++ {
			if l.e[(nStar+ci)*w+i] != 0 {
				accepted++
			}
		}
		switch {
		case accepted == 0:
			cov.allRejected++
		case accepted < sp.i1-sp.i0+1:
			cov.rejectedInSpan++
		}
	}
}

// TestSweepRowGradBitwiseVsFused pins the two-loop galaxy pass A to the fused
// loop it replaced: over random evaluators (PSF components with non-zero
// means), widths 1 to 3 (the lane pass's odd tail) and wider rows, every row
// crossing a source, the lanes, E slab and span table agree bit for bit.
// Zero-weight components and spans that are odd, clipped at either lane
// edge, wholly rejected or partly rejected must all occur.
func TestSweepRowGradBitwiseVsFused(t *testing.T) {
	r := rng.New(8675309)
	var got, want RowLanes
	var cov bitwiseCover
	for trial := 0; trial < 300; trial++ {
		scaleMul := 1.0
		if trial%4 == 3 {
			scaleMul = 8 // spans longer than the in-row resync period
		}
		a := randomBuildArgs(r, scaleMul)
		if trial%5 == 4 {
			a.rho = -800 // the de Vaucouleurs weight underflows: K == 0
		}
		e := a.evaluator()
		w := 1 + trial%3
		if trial >= 60 {
			w = 1 + r.Intn(120)
		}
		x0 := -float64(w)/2 - 6*r.Normal() - r.Float64()
		dxs := rowDxs(w, x0)
		checkPatchBitwise(t, "trial", e, &got, &want, dxs, -20-r.Float64(), 40, &cov)
	}
	t.Logf("coverage %+v", cov)
	if cov.oddSpans == 0 || cov.clipLo == 0 || cov.clipHi == 0 || cov.allRejected == 0 ||
		cov.rejectedInSpan == 0 || cov.zeroK == 0 {
		t.Fatalf("span shapes not all exercised: %+v", cov)
	}
}

// FuzzSweepRowGradBitwise drives the bitwise comparison from fuzzer-chosen
// geometry: the build inputs' random draws, the width, the row's start and
// height, the galaxy scale, and the profile-mix logit.
func FuzzSweepRowGradBitwise(f *testing.F) {
	f.Add(uint64(1), 1, -0.5, 0.25, 1.0, 0.0)
	f.Add(uint64(2), 3, -1.7, 2.0, 1.0, 3.0)
	f.Add(uint64(3), 2, 0.3, -1.1, 8.0, -800.0)
	f.Add(uint64(4), 77, -40.2, 6.5, 8.0, -1.0)
	f.Fuzz(func(t *testing.T, seed uint64, w int, x0, dy, scaleMul, rho float64) {
		if w < 1 || w > 300 || !(scaleMul >= 0.05 && scaleMul <= 20) ||
			!(math.Abs(x0) < 1e3 && math.Abs(dy) < 1e3 && math.Abs(rho) <= 1e3) {
			return
		}
		a := randomBuildArgs(rng.New(seed), scaleMul)
		a.rho = rho
		e := a.evaluator()
		var got, want RowLanes
		dxs := rowDxs(w, x0)
		checkPatchBitwise(t, "fuzz", e, &got, &want, dxs, dy, 2, nil)
	})
}
