package mog

import (
	"unsafe"

	"celeste/internal/dual"
	"celeste/internal/sliceutil"
)

// This file implements the first-order row sweeps — pass A of the
// moment-contracted derivative tiers (see rowmoment.go). Both run, per
// component, the serial part of a row sweep (the E generator, egen.go: the
// active interval, the carried exponential recurrence and the bitwise
// qCutoff decisions) into the lanes' E slab, which the moment pass re-reads
// instead of re-running the recurrence, and then add the component's terms
// to the lanes pixel by pixel from that slab.
//
//   - SweepRowGrad fills the value and gradient lanes: the full tier's pass A
//     (its per-pixel outer products and brightness vector moments need the
//     total gradient at every pixel).
//   - SweepRowE fills the value lanes only: the gradient tier's pass A.

// SweepRowGrad evaluates the star and galaxy spatial densities with first
// derivatives only for one pixel row, writing the value and gradient lanes of
// l (which it zeroes first) and the E slab. The Hessian lanes are left
// untouched and must be treated as stale by the caller. Lane i matches the
// value and gradient of EvalStar(dxs[i], dy) / EvalGal(dxs[i], dy) exactly as
// SweepRow does, with identical qCutoff truncation decisions.
func (e *Evaluator) SweepRowGrad(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	if len(dxs) != w {
		panic("mog: SweepRowGrad dxs length does not match lane width")
	}
	clearFloats(l.StarV)
	clearFloats(l.StarG)
	clearFloats(l.GalV)
	clearFloats(l.GalG)
	e.beginRow(l)
	if w == 0 {
		return
	}
	e.sweepStarGrad(l, dxs, dy)
	e.sweepGalGrad(l, dxs, dy)
}

// SweepRowE evaluates the star and galaxy spatial density values for one
// pixel row, writing the value lanes of l (which it zeroes first) and the E
// slab; the gradient lanes are left stale. Values are bitwise those of
// SweepRowGrad.
func (e *Evaluator) SweepRowE(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	if len(dxs) != w {
		panic("mog: SweepRowE dxs length does not match lane width")
	}
	clearFloats(l.StarV)
	clearFloats(l.GalV)
	e.beginRow(l)
	if w == 0 {
		return
	}
	e.sweepCompsE(l, 0, e.Star, l.StarV, dxs, dy)
	e.sweepCompsE(l, len(e.Star), e.Gal, l.GalV, dxs, dy)
}

// beginRow starts the next row of the evaluator's patch: it sizes l's E slab
// and span table, marking every component inactive, and advances the
// generator.
func (e *Evaluator) beginRow(l *RowLanes) {
	n := len(e.Star) + len(e.Gal)
	l.growE(n)
	e.gen.begin(n)
}

// growE sizes the E slab and the span table for n components at the current
// width, marking every component inactive.
func (l *RowLanes) growE(n int) {
	l.e = sliceutil.Grow(l.e, n*l.w)
	l.span = sliceutil.Grow(l.span, n)
	for i := range l.span {
		l.span[i] = rowSpan{0, -1}
	}
}

// sweepCompsE accumulates the density values of comps into dst and records
// each component's exponential row; slab rows start at component index base.
// A rejected pixel's E is 0, so kv*E adds +0 there and leaves dst's bits as
// they are (dst starts at +0 and never holds −0).
func (e *Evaluator) sweepCompsE(l *RowLanes, base int, comps []DualComp, dst, dxs []float64, dy float64) {
	for ci := range comps {
		c := &comps[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		erow, _, i0, i1, ok := e.gen.eRow(l, base+ci, c, dxs, dy)
		if !ok {
			continue
		}
		for i := i0; i <= i1; i++ {
			dst[i] += kv * erow[i]
		}
	}
}

// sweepStarGrad is sweepStar without the position-position Hessian lanes:
// the E generator, then the two gradient lanes at the pixels with E ≠ 0
// (exactly the accepted ones).
func (e *Evaluator) sweepStarGrad(l *RowLanes, dxs []float64, dy float64) {
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	w := l.w
	sv := l.StarV
	sg0, sg1 := l.StarG[:w], l.StarG[w:2*w]

	for ci := range e.Star {
		c := &e.Star[ci]
		kv := c.K.V
		q11, q12, q22 := c.Q11.V, c.Q12.V, c.Q22.V
		erow, d2, i0, i1, ok := e.gen.eRow(l, ci, c, dxs, dy)
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

// sweepGalGrad is sweepGal keeping only the value and gradient lanes, in two
// loops per component. The serial loop, the E generator, keeps what carries
// state from pixel to pixel — the active interval, the exponential
// recurrence with its resyncs and the qCutoff test — and writes only the
// component's E row.
// The lane pass (galLanes) then reads that row and, pixel by pixel
// independently, adds the component's value and six gradient terms, masked
// by E ≠ 0. Every accepted pixel has E ≥ e⁻²⁵ > 0 and every rejected one
// E = 0, so the mask is exactly the acceptance test; each pixel gets the same
// IEEE operations in the same order as the fused loop, and each lane is
// summed over components in component order, so the lanes are bit for bit
// those of a fused sweep.
func (e *Evaluator) sweepGalGrad(l *RowLanes, dxs []float64, dy float64) {
	w := l.w
	nStar := len(e.Star)
	for ci := range e.Gal {
		c := &e.Gal[ci]
		if c.K.V == 0 {
			continue
		}
		erow, d2, i0, i1, ok := e.gen.eRow(l, nStar+ci, c, dxs, dy)
		if !ok {
			continue
		}

		t := e.galTab[ci*2*galTabLen : (ci+1)*2*galTabLen]
		setPair(t, gtD2, d2)
		setPair(t, gtQ12D2, c.Q12.V*d2)
		setPair(t, gtQ22D2, c.Q22.V*d2)
		for k := 2; k < dual.N; k++ {
			setPair(t, gtSC+k-2, c.Q22.G[k]*(d2*d2))
		}
		galLanes(t, dxs[i0:i1+1], erow[i0:i1+1], l.GalV[i0:i1+1], l.GalG[i0:], w)
	}
}

// The lane pass reads its per-component constants from the evaluator's
// galaxy table: galTabLen entries per component, each stored twice (one
// 16-byte pair, the two lanes of an SSE2 register) and the whole table
// 16-byte aligned. Build fills the entries up to gtD2 once per patch;
// sweepGalGrad rewrites the d2-dependent rest per (component, row). The
// names give the fused sweep's quantities: the pixel-independent operands
// of tq1 = 2*(q11*d1 + q12*d2), tq2 = 2*(q12*d1 + q22*d2), the position
// chain rule g, and the shape gradient t_k = K.G[k] − ½K·(sa_k·s11 + sb_k·s12
// + sc_k).
const (
	gtMuX = iota
	gtQ11
	gtQ12
	gtG10
	gtG20
	gtG11
	gtG21
	gtKV
	gtHalfKV
	gtHalf
	gtKG // K.G[2..5]

	gtSA      = gtKG + 4 // Q11.G[2..5]
	gtSB      = gtSA + 4 // 2*Q12.G[2..5]
	gtD2      = gtSB + 4 // row entries from here on
	gtQ12D2   = gtD2 + 1 // q12*d2
	gtQ22D2   = gtD2 + 2 // q22*d2
	gtSC      = gtD2 + 3 // Q22.G[2..5]*d2²
	galTabLen = gtSC + 4
)

// setPair stores v into both lanes of table entry i.
func setPair(t []float64, i int, v float64) { t[2*i], t[2*i+1] = v, v }

// fillGalTab sizes the galaxy table for e.Gal and writes every entry that
// does not depend on the row.
func (e *Evaluator) fillGalTab() {
	n := 2 * galTabLen * len(e.Gal)
	e.galBuf = sliceutil.Grow(e.galBuf, n+1)
	off := int(uintptr(unsafe.Pointer(&e.galBuf[0]))&15) / 8
	e.galTab = e.galBuf[off : off+n]
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22
	for ci := range e.Gal {
		c := &e.Gal[ci]
		t := e.galTab[ci*2*galTabLen : (ci+1)*2*galTabLen]
		setPair(t, gtMuX, c.MuX)
		setPair(t, gtQ11, c.Q11.V)
		setPair(t, gtQ12, c.Q12.V)
		setPair(t, gtG10, g10)
		setPair(t, gtG20, g20)
		setPair(t, gtG11, g11)
		setPair(t, gtG21, g21)
		setPair(t, gtKV, c.K.V)
		setPair(t, gtHalfKV, 0.5*c.K.V)
		setPair(t, gtHalf, 0.5)
		for k := 2; k < dual.N; k++ {
			setPair(t, gtKG+k-2, c.K.G[k])
			setPair(t, gtSA+k-2, c.Q11.G[k])
			setPair(t, gtSB+k-2, 2*c.Q12.G[k])
		}
	}
}

// checkGalLanes panics unless the lane pass's slices are consistent: one
// component's table, equal-length dxs, erow and gv, and a gG holding six
// lanes of stride w from its start.
func checkGalLanes(t, dxs, erow, gv, gG []float64, w int) {
	n := len(dxs)
	if len(t) != 2*galTabLen || len(erow) != n || len(gv) != n || n > w ||
		len(gG) < (dual.N-1)*w+n {
		panic("mog: galLanes slice lengths")
	}
}
