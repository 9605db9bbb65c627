package mog

import (
	"math"
	"testing"

	"celeste/internal/rng"
)

// rowDxs returns the x-offsets of w unit-spaced pixels starting at x0.
func rowDxs(w int, x0 float64) []float64 {
	dxs := make([]float64, w)
	for i := range dxs {
		dxs[i] = float64(i) + x0
	}
	return dxs
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// slabRows records, row by row, the span table and the E slab entries inside
// each span after a sweep.
type slabRows [][]float64

func (s *slabRows) record(l *RowLanes) {
	var row []float64
	for k, sp := range l.span {
		row = append(row, float64(sp.i0), float64(sp.i1))
		if sp.i0 <= sp.i1 {
			row = append(row, l.e[k*l.w+sp.i0:k*l.w+sp.i1+1]...)
		}
	}
	*s = append(*s, row)
}

// TestSweepsShareESlab runs one multi-row patch through SweepRow,
// SweepRowGrad and SweepRowE, each from a reset, and a first-order build's
// SweepRowE: every row's span table and E slab agree bit for bit, and a
// repeated sweep of the same patch reproduces them.
func TestSweepsShareESlab(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 40; trial++ {
		scaleMul := 1.0
		if trial%3 == 2 {
			scaleMul = 8 // spans longer than the in-row resync period
		}
		a := randomBuildArgs(r, scaleMul)
		e := a.evaluator()
		first := &Evaluator{}
		first.BuildGrad(a.psf, a.expP, a.devP, a.rho, a.ab, a.th, a.logScale, a.jac)
		w := 1 + r.Intn(100)
		h := 1 + r.Intn(60)
		dxs := rowDxs(w, -float64(w)/2-3*r.Normal()-r.Float64())
		y0 := -float64(h)/2 - 3*r.Normal() - r.Float64()

		sweep := func(ev *Evaluator, row func(*Evaluator, *RowLanes, []float64, float64)) slabRows {
			var l RowLanes
			l.Resize(w)
			ev.ResetRows()
			var s slabRows
			for y := 0; y < h; y++ {
				row(ev, &l, dxs, y0+float64(y))
				s.record(&l)
			}
			return s
		}
		want := sweep(e, (*Evaluator).SweepRow)
		for _, c := range []struct {
			name string
			ev   *Evaluator
			row  func(*Evaluator, *RowLanes, []float64, float64)
		}{
			{"SweepRowGrad", e, (*Evaluator).SweepRowGrad},
			{"SweepRowE", e, (*Evaluator).SweepRowE},
			{"BuildGrad SweepRowE", first, (*Evaluator).SweepRowE},
			{"repeated SweepRow", e, (*Evaluator).SweepRow},
		} {
			got := sweep(c.ev, c.row)
			for y := range want {
				if i, ok := sameBits(got[y], want[y]); !ok {
					t.Fatalf("trial %d %s row %d: slab entry %d = %v, SweepRow's %v", trial, c.name, y, i, got[y], want[y])
				}
			}
		}
	}
}

// TestResyncCountPinned pins the exact resyncs of a fixed 48×40 patch: an
// evaluator's 15 components, active on 500 (component, row) pairs, and the
// value sweep of a star and a galaxy mixture. A component resyncs on its
// first row and again only once its carried steps run out; a resync on every
// active (component, row) pair would count 500 on the dual sweep.
func TestResyncCountPinned(t *testing.T) {
	a := randomBuildArgs(rng.New(3), 1)
	e := a.evaluator()
	const w, h = 48, 40
	dxs := rowDxs(w, -float64(w)/2+0.3)
	var l RowLanes
	l.Resize(w)
	pairs := 0
	for y := 0; y < h; y++ {
		e.SweepRowGrad(&l, dxs, -float64(h)/2+0.4+float64(y))
		for _, sp := range l.span {
			if sp.i0 <= sp.i1 {
				pairs++
			}
		}
	}
	const wantDual, wantPairs = 22, 500
	if got := e.Resyncs(); got != wantDual || pairs != wantPairs {
		t.Fatalf("dual sweep: %d resyncs over %d active (component, row) pairs, want %d over %d",
			got, pairs, wantDual, wantPairs)
	}

	star := CompileInto(nil, a.psf)
	gal := CompileInto(nil, GalaxyMixture(a.psf, a.expP, 0.6, 0.4, 3e-4, a.jac))
	var gs, gg EGen
	dst := make([]float64, w)
	gs.Reset()
	gg.Reset()
	for y := 0; y < h; y++ {
		dy := -float64(h)/2 + 0.4 + float64(y)
		gs.SweepRowValue(dst, star, dxs, dy)
		gg.SweepRowValue(dst, gal, dxs, dy)
	}
	const wantStar, wantGal = 3, 12
	if gs.Resyncs() != wantStar || gg.Resyncs() != wantGal {
		t.Fatalf("value sweep: %d star and %d galaxy resyncs, want %d and %d",
			gs.Resyncs(), gg.Resyncs(), wantStar, wantGal)
	}
}

// TestNarrowCorrelatedERow drives the narrow, correlated geometry of
// FuzzRowKernelVsEvalComps's NaN seed through the dual path's E slab: where
// the cutoff accepts a pixel its E is finite and within 1e-10 of exact
// exp(-q/2), and the slab is zero elsewhere.
func TestNarrowCorrelatedERow(t *testing.T) {
	psf := Mixture{{Weight: 1, MuX: 0.3484, MuY: 0.0408, Sxx: 0.00101711, Sxy: 0.0009357, Syy: 0.00293125}}
	e := &Evaluator{Star: starCompsInto(nil, psf)}
	const w = 8
	dxs := make([]float64, w)
	for i := range dxs {
		dxs[i] = float64(i-w/2) + 0.25
	}
	var l RowLanes
	l.Resize(w)
	accepted := 0
	for y := 0; y < 3; y++ {
		dy := -0.1808 + float64(y)
		e.SweepRowE(&l, dxs, dy)
		c := &e.Star[0]
		d2 := dy - c.MuY
		sp := l.span[0]
		for i := 0; i < w; i++ {
			d1 := dxs[i] - c.MuX
			qv := c.Q11.V*(d1*d1) + 2*c.Q12.V*(d1*d2) + c.Q22.V*(d2*d2)
			got := 0.0
			if i >= sp.i0 && i <= sp.i1 {
				got = l.e[i]
			}
			if qv > qCutoff {
				if got != 0 {
					t.Fatalf("row %d px %d: E %v where the cutoff rejects (q=%v)", y, i, got, qv)
				}
				continue
			}
			accepted++
			want := math.Exp(-0.5 * qv)
			if !(math.Abs(got-want) <= 1e-10*want) {
				t.Fatalf("row %d px %d: E %v, exact %v", y, i, got, want)
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no pixel accepted: the case does not exercise the chain start")
	}
}
