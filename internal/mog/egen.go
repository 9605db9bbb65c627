package mog

import "math"

// This file holds the E generator, the one place a row sweep computes a
// component's bare exponential E = exp(-q/2) at the pixels of a row. Every
// sweep calls it: SweepRowValue, the pass-A sweeps SweepRowGrad and SweepRowE,
// and the lane oracle SweepRow.
//
// With q(d1, d2) = q11·d1² + 2·q12·d1·d2 + q22·d2², E obeys two-multiply
// recurrences in both pixel directions:
//
//	along the row:  E(i+1) = E(i)·r(i),  r(i+1) = r(i)·s,   s = e^{−q11}
//	down a column:  E(j+1) = E(j)·c(j),  c(j+1) = c(j)·v,   v = e^{−q22}
//
// and the cross steps r(j+1) = r(j)·t, c(i+1) = c(i)·t with t = e^{−q12}.
// The generator keeps, per component, the state (E, r, c) at the row's
// anchor pixel — its first pixel the cutoff test accepts — and carries it
// from row to row: one row down is E·c, r·t, c·v, then a walk along the row
// to the new anchor (multiplying rightward, dividing leftward). Exact
// math.Exp resyncs happen only on a component's first row of a patch, after
// carryResync carried steps, every rowResync pixels along a row, and
// whenever the carried state leaves the normal range. Along the row two
// interleaved chains, even and odd pixels, each advance by
// E(i+2) = E(i)·R(i), R(i+2) = R(i)·s⁴ with R = r²·s, so each pixel waits on
// one multiply of its own chain every other pixel.
//
// Anchoring at the first accepted pixel keeps the chains' start
// representable: there q ≤ qCutoff, so E ≥ e⁻²⁵ and r ≤ e²⁵. At the widened
// interval start of a narrow component E can underflow to 0 while r
// overflows, and the product of the two is NaN.
//
// A patch starts with an explicit Reset (Build and BuildGrad reset an
// Evaluator's generator), never by comparing row offsets, so a pixel's E is
// a pure function of its compiled components and the rows swept since the
// patch began.

// carryResync is the number of carried steps — rows, plus the pixels each
// anchor walk moves — after which a component's state is recomputed exactly.
// Each step multiplies in rounded constants, so the relative error of E
// grows about quadratically in the steps since the resync. 48 steps keep the
// carried part near 1e-13 and leave the in-row chains the rest of the 1e-12
// drift budget (see TestRowSweepDriftBound); a patch's component is active
// on ~23 rows on average, so most components resync once per patch.
const carryResync = 48

// rowResync is the in-row resync period: after this many pixels from the
// anchor or the last in-row resync, both chains restart from exact math.Exp
// calls. Each chain then takes at most 32 steps, so the in-row drift stays
// near 1e-13 relative.
const rowResync = 64

// rowConst holds a compiled component's row-sweep constants, all set by set
// from its precision entries: the entries themselves, the hoisted
// row-interval geometry (q12/q11, the Schur complement q22 − q12²/q11 — the
// effective row-direction precision — and 1/q11, which save rowInterval two
// divides per component and row), and the recurrence ratios.
type rowConst struct {
	q11, q12, q22                float64
	q12OverQ11, qminCoef, invQ11 float64

	s, s4 float64 // e^{−q11} and its fourth power: one pixel, one chain step
	t, v  float64 // e^{−q12}, e^{−q22}: one row down
}

// set computes every constant from the precision entries (q11, q12, q22).
func (k *rowConst) set(q11, q12, q22 float64) {
	s := math.Exp(-q11)
	s2 := s * s
	// Field by field: a composite literal would be built aside and copied.
	k.q11, k.q12, k.q22 = q11, q12, q22
	k.q12OverQ11 = q12 / q11
	k.qminCoef = q22 - q12*q12/q11
	k.invQ11 = 1 / q11
	k.s, k.s4 = s, s2*s2
	k.t, k.v = math.Exp(-q12), math.Exp(-q22)
}

// EGen is the E generator's per-worker state: every component's carried
// recurrence state, the row count that dates it, and a count of exact
// resyncs. An Evaluator owns one for its dual sweeps; a value-path worker
// owns one per compiled mixture it sweeps row by row. The zero value is
// ready to use.
type EGen struct {
	carry   []eCarry
	row     int
	resyncs int64
}

// eCarry is one component's carried state: E, the row ratio r = E(i+1)/E(i)
// and the column ratio c = E(j+1)/E(j) at anchor pixel i of generator row
// row, the last pixel ib of that row's accepted run, and the carried steps
// left before an exact resync (0: none valid).
type eCarry struct {
	e, r, c    float64
	i, ib, row int
	left       int
}

// Reset starts a patch: the next row resyncs every component exactly. A
// carried state is valid only on the row after the one it was taken on, so
// skipping a row number invalidates them all.
func (g *EGen) Reset() { g.row++ }

// Resyncs returns the number of exact resyncs the generator has made since
// it was created: three math.Exp calls at a row's anchor (E, r and c), two
// in the row (E and r).
func (g *EGen) Resyncs() int64 { return g.resyncs }

// begin starts the next row of a sweep over n components.
func (g *EGen) begin(n int) {
	g.row++
	if n > len(g.carry) {
		g.carry = append(g.carry, make([]eCarry, n-len(g.carry))...)
	}
}

// SweepRowValue is the value-only row sweep of the current patch's next row:
// dst[i] accumulates the density of comps at pixel offset (dxs[i], dy),
// matching EvalComps(comps, dxs[i], dy) to ~1e-12 relative with identical
// qCutoff truncation decisions. Successive calls between Resets must pass the
// same comps and dxs and successive rows, dy increasing by one. dst is zeroed
// first; dxs must be unit-spaced ascending and len(dst) == len(dxs).
func (g *EGen) SweepRowValue(dst []float64, comps []ValueComp, dxs []float64, dy float64) {
	g.begin(len(comps))
	g.sweepValue(dst, comps, dxs, dy, true)
}

// SweepRowValue sweeps one row as a patch of its own: every component
// resyncs exactly. It is (*EGen).SweepRowValue from a Reset, without the
// carried state.
func SweepRowValue(dst []float64, comps []ValueComp, dxs []float64, dy float64) {
	var g EGen
	g.sweepValue(dst, comps, dxs, dy, false)
}

// sweepValue runs the value sweep, carrying state in g when carry is set.
func (g *EGen) sweepValue(dst []float64, comps []ValueComp, dxs []float64, dy float64, carry bool) {
	if len(dst) != len(dxs) {
		panic("mog: SweepRowValue dst length does not match dxs")
	}
	clearFloats(dst)
	for ci := range comps {
		c := &comps[ci]
		var fresh eCarry
		st := &fresh
		if carry {
			st = &g.carry[ci]
		}
		_, _, n := st.fill(g.row, &c.Row, c.MuX, dst, dxs, dy-c.MuY, c.K, true)
		g.resyncs += int64(n)
	}
}

// eRow runs the generator for component k (star components first, then
// galaxy) of an evaluator on the current row: it records the component's
// span in l and writes its E slab row — E at the pixels the cutoff accepts,
// exactly zero elsewhere in the span. ok is false when the component does
// not reach the row.
func (g *EGen) eRow(l *RowLanes, k int, c *DualComp, dxs []float64, dy float64) (erow []float64, d2 float64, i0, i1 int, ok bool) {
	d2 = dy - c.MuY
	erow = l.e[k*l.w : (k+1)*l.w]
	i0, i1, n := g.carry[k].fill(g.row, &c.Row, c.MuX, erow, dxs, d2, 0, false)
	g.resyncs += int64(n)
	if i0 > i1 {
		return nil, d2, 0, 0, false
	}
	l.span[k] = rowSpan{i0, i1}
	return erow, d2, i0, i1, true
}

// cutoffQ evaluates a row's cutoff exponent at offset d1 by one of the two
// expressions the package's references use, bit for bit: EvalComps' (value)
// or evalComps' (the dual path's). q12x2 is 2·q12 and c22 the row's
// d2-only term by the same expression, (q22·d2)·d2 or q22·(d2·d2).
func cutoffQ(value bool, q11, q12x2, d2, c22, d1 float64) float64 {
	if value {
		return q11*d1*d1 + q12x2*d1*d2 + c22
	}
	return q11*(d1*d1) + q12x2*(d1*d2) + c22
}

// convex reports whether every pixel strictly between two accepted pixels
// is accepted too, proven without testing it, for pixels no farther than d1
// from the component's centre column. The exact exponent Q is a parabola
// with leading coefficient q11, so at a pixel between two others, at least
// one pixel from each, Q lies at least q11 below the larger of its values
// at the two. Each term of either expression passes through at most four
// roundings, so both evaluate Q within 4·2⁻⁵³·T, T = q11·d1² +
// |2·q12·d1·d2| + |c22|, which grows with |d1|. The interior is therefore
// accepted whenever q11 exceeds twice that error; qErr leaves a margin of
// ten. Only components about a million pixels wide, or sheared to
// near-singularity, fail it.
func convex(q11, q12x2, d2, c22, d1 float64) bool {
	const qErr = 1e-14
	return q11 > qErr*(q11*d1*d1+math.Abs(q12x2*d1*d2)+math.Abs(c22))
}

// maxAbs returns the larger of |a| and |b|.
func maxAbs(a, b float64) float64 {
	a, b = math.Abs(a), math.Abs(b)
	if b > a {
		return b
	}
	return a
}

// fill computes E at the pixels of generator row row that the cutoff
// accepts, carrying st from the previous row where it can. It returns the
// span i0..i1 the row covers (i0 > i1: none) and the number of exact
// resyncs made. With value set it tests pixels by EvalComps' expression and
// adds kv·E to out at the accepted ones; otherwise it tests by the dual
// path's and writes out[i0..i1]: E where accepted, zero elsewhere (kv is
// unused).
//
// The accepted pixels of a row are one run, and convex proves the pixels
// between two accepted ones accepted, so the chains run over the run without
// testing. On a carried row the run's ends are found from the previous
// row's by the cutoff test alone, and the span is the run; otherwise
// rowInterval bounds the row and the test finds the run inside it.
func (st *eCarry) fill(row int, k *rowConst, mux float64, out, dxs []float64, d2, kv float64, value bool) (i0, i1, resyncs int) {
	q11, q12x2 := k.q11, 2*k.q12
	c22 := k.q22 * (d2 * d2)
	if value {
		c22 = k.q22 * d2 * d2
	}
	accept := func(i int) bool { return cutoffQ(value, q11, q12x2, d2, c22, dxs[i]-mux) <= qCutoff }
	carried := st.left > 0 && st.row == row-1 && st.ib < len(dxs)
	ia, ib, test := -1, -1, true
	if w := len(dxs); carried && convex(q11, q12x2, d2, c22, maxAbs(dxs[0]-mux, dxs[w-1]-mux)) {
		// Every pixel of the row between two accepted ones is accepted, so
		// if either end of the previous run is accepted on this row, the
		// test walks from it to both ends of this row's run, and nothing
		// outside the run is accepted.
		pa, pb := st.i, st.ib
		if okA, okB := accept(pa), accept(pb); okA || okB {
			ia, ib, test = pa, pb, false
			if okA {
				for ia > 0 && accept(ia-1) {
					ia--
				}
			} else {
				for ia++; !accept(ia); ia++ {
				}
			}
			if okB {
				for ib < w-1 && accept(ib+1) {
					ib++
				}
			} else {
				for ib--; !accept(ib); ib-- {
				}
			}
			i0, i1 = ia, ib
		}
	}
	if ia < 0 {
		var ok bool
		if i0, i1, ok = rowInterval(dxs, k, mux, d2); !ok {
			st.left = 0 // no anchor on this row: the next one resyncs
			return 0, -1, 0
		}
		for ia = i0; ia <= i1 && !accept(ia); ia++ {
		}
		if ia > i1 {
			st.left = 0
			if !value {
				clearFloats(out[i0 : i1+1])
			}
			return i0, i1, 0
		}
		for ib = i1; ib > ia && !accept(ib); ib-- {
		}
		test = !convex(q11, q12x2, d2, c22, maxAbs(dxs[ia]-mux, dxs[ib]-mux))
	}

	e, r, c, ok := 0.0, 0.0, 0.0, false
	if walk := absInt(ia - st.i); carried && st.left > walk {
		if e, r, c, ok = st.step(k, ia); ok {
			st.left -= 1 + walk
		}
	}
	if !ok {
		d1 := dxs[ia] - mux
		e = math.Exp(-0.5 * cutoffQ(value, q11, q12x2, d2, c22, d1))
		r = math.Exp(-0.5 * (q11*(2*d1+1) + q12x2*d2))
		c = math.Exp(-0.5 * (q12x2*d1 + k.q22*(2*d2+1)))
		resyncs++
		st.left = carryResync
		if !normal3(e, r, c) {
			st.left = 0
		}
	}
	st.e, st.r, st.c, st.i, st.ib, st.row = e, r, c, ia, ib, row

	// The run in segments of rowResync pixels; each after the first starts
	// from an exact resync.
	e0, e1, r0, r1 := chains(e, r, k.s)
	for seg := ia; seg <= ib; seg += rowResync {
		if seg > ia {
			d1 := dxs[seg] - mux
			e = math.Exp(-0.5 * cutoffQ(value, q11, q12x2, d2, c22, d1))
			r = math.Exp(-0.5 * (q11*(2*d1+1) + q12x2*d2))
			e0, e1, r0, r1 = chains(e, r, k.s)
			resyncs++
		}
		o := out[seg:min(seg+rowResync, ib+1)]
		x := dxs[seg : seg+len(o)]
		j := 0
		for ; j+1 < len(o); j += 2 {
			a, b := e0, e1
			if test {
				if !(cutoffQ(value, q11, q12x2, d2, c22, x[j]-mux) <= qCutoff) {
					a = 0
				}
				if !(cutoffQ(value, q11, q12x2, d2, c22, x[j+1]-mux) <= qCutoff) {
					b = 0
				}
			}
			if value {
				o[j] += kv * a
				o[j+1] += kv * b
			} else {
				o[j], o[j+1] = a, b
			}
			e0 *= r0
			r0 *= k.s4
			e1 *= r1
			r1 *= k.s4
		}
		if j < len(o) {
			a := e0
			if test && !(cutoffQ(value, q11, q12x2, d2, c22, x[j]-mux) <= qCutoff) {
				a = 0
			}
			if value {
				o[j] += kv * a
			} else {
				o[j] = a
			}
		}
	}
	if !value {
		clearFloats(out[i0:ia])
		clearFloats(out[ib+1 : i1+1])
	}
	return i0, i1, resyncs
}

// step returns the state one row below st, walked along the row to pixel
// ia; ok is false when it left the normal range, where a multiply can lose
// precision. Along the walk E rises toward the anchor or stays above e⁻²⁵
// inside the accepted interval, and r and c are monotone, so checking the
// two ends covers every step.
func (st *eCarry) step(k *rowConst, ia int) (e, r, c float64, ok bool) {
	e, r, c = st.e*st.c, st.r*k.t, st.c*k.v
	if !normal3(e, r, c) {
		return e, r, c, false
	}
	for j := st.i; j < ia; j++ {
		e *= r
		c *= k.t
		r *= k.s
	}
	for j := st.i; j > ia; j-- {
		r /= k.s
		e /= r
		c /= k.t
	}
	return e, r, c, normal3(e, r, c)
}

// chains splits the row recurrence at a pixel with exponential e and row
// ratio r into the even and odd chains: their first values and ratios.
func chains(e, r, s float64) (e0, e1, r0, r1 float64) {
	rs := r * s
	return e, e * r, r * r * s, rs * rs * s
}

// normal3 reports whether a, b and c are all normal positive floats (not
// zero, subnormal, infinite or NaN).
func normal3(a, b, c float64) bool {
	return isNormal(a) && isNormal(b) && isNormal(c)
}

func isNormal(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
