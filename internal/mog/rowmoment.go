package mog

import (
	"celeste/internal/dual"
	"celeste/internal/sliceutil"
)

// This file implements the moment contraction of the spatial derivative
// blocks. The ELBO needs, per patch, the pixel sums
//
//	Σ_px ωs·∇ᵏgs + ωg·∇ᵏgg   (k = 1, 2)
//
// where gs, gg are the star and galaxy densities and the weights ωs, ωg
// depend only on each pixel's total densities. Every component's derivative
// at a pixel is its exponential E_c = exp(-q/2) times a polynomial in the
// centred offsets (d1, d2) = (dx − μx, dy − μy) whose coefficients are
// constant per (component, evaluation):
//
//	block            degree   coefficients
//	∂pos             1        K·Q·J
//	∂shape           0, 2     ∇K;  K·∇Q
//	∂pos∂pos         0, 2     K·Q·J·J;  K·(Q·J)²
//	∂shape∂pos       1, 3     ∇K·Q·J, K·∇Q·J;  K·∇Q·Q·J
//	∂shape∂shape     0, 2, 4  ∇²K;  ∇K·∇Q, K·∇²Q;  K·∇Q·∇Q
//
// (star components stop at the position blocks: their K and Q are
// constants). So instead of materialising 6 gradient and 21 Hessian values
// per component per pixel into SoA lanes and weighting the lanes afterwards,
// pass B (AccumRow) re-walks each component's recorded E row and
// accumulates in registers the weighted central moments
//
//	M_ab = Σ_px ω·E_c·d1ᵃ·d2ᵇ,   a + b ≤ 2 (gradient) or ≤ 4 (Hessian),
//
// as one running sum per power of d1 along the row, folded with the row's
// constant d2ᵇ at row end; and one per-patch assembly (MomentGrad,
// MomentHess) contracts the moments with the coefficients above. The pixels
// contributing are exactly those SweepRowGrad/SweepRowE accepted under
// qCutoff — pass B reads their E slab, whose rejected entries are zero — so
// truncation decisions are those of the lane kernels bit for bit.

// Moment layout per component: index of M_ab, ordered by total degree, so
// that the first momLen2 entries are the degree ≤ 2 moments both tiers share.
const (
	m00 = iota
	m10
	m01
	m20
	m11
	m02
	m30
	m21
	m12
	m03
	m40
	m31
	m22
	m13
	m04

	momLen2 = m02 + 1 // degree ≤ 2: gradient tier, and star components always
	momLen4 = m04 + 1 // degree ≤ 4: galaxy components on the full tier
)

// Moments holds one patch's per-component weighted central moments: momLen2
// per star component and momLen4 per galaxy component (of which the gradient
// tier fills only the first momLen2). A sweep worker owns one and reuses it
// across patches.
type Moments struct {
	star []float64
	gal  []float64
}

// Reset sizes m for e's components and zeroes it.
func (m *Moments) Reset(e *Evaluator) {
	m.star = sliceutil.Grow(m.star, momLen2*len(e.Star))
	m.gal = sliceutil.Grow(m.gal, momLen4*len(e.Gal))
	clearFloats(m.star)
	clearFloats(m.gal)
}

// rowSums2 returns Σ ω·E·d1ᵃ for a = 0..2 over one component's active span.
// The three sums are formed by the same operations, in the same order, as
// the first three of rowSums4, so the degree ≤ 2 moments — and with them the
// spatial gradient — agree bitwise between the gradient and the full tier.
func rowSums2(erow, om, dxs []float64, mux float64) (s0, s1, s2 float64) {
	om = om[:len(erow)]
	dxs = dxs[:len(erow)]
	for i, ev := range erow {
		t := om[i] * ev
		d1 := dxs[i] - mux
		s0 += t
		t *= d1
		s1 += t
		t *= d1
		s2 += t
	}
	return
}

// rowSums4 returns Σ ω·E·d1ᵃ for a = 0..4 over one component's active span.
func rowSums4(erow, om, dxs []float64, mux float64) (s0, s1, s2, s3, s4 float64) {
	om = om[:len(erow)]
	dxs = dxs[:len(erow)]
	for i, ev := range erow {
		t := om[i] * ev
		d1 := dxs[i] - mux
		s0 += t
		t *= d1
		s1 += t
		t *= d1
		s2 += t
		t *= d1
		s3 += t
		t *= d1
		s4 += t
	}
	return
}

// fold2 adds one row's d1-power sums into the degree ≤ 2 moments.
func fold2(mm []float64, s0, s1, s2, d2 float64) {
	mm = mm[:momLen2]
	mm[m00] += s0
	mm[m10] += s1
	mm[m01] += s0 * d2
	mm[m20] += s2
	mm[m11] += s1 * d2
	mm[m02] += s0 * (d2 * d2)
}

// AccumRow is pass B: it folds the current row — swept by SweepRowE or
// SweepRowGrad into l — into m, weighting star components by ws[i] and
// galaxy components by wg[i]. dxs and dy are the row's offsets as passed to
// the sweep. With deg4 false (gradient tier) only the degree ≤ 2 moments are
// accumulated; with deg4 true (full tier) the galaxy components also get
// degrees 3 and 4 (the star Hessian needs only degree 2).
func (e *Evaluator) AccumRow(m *Moments, l *RowLanes, ws, wg, dxs []float64, dy float64, deg4 bool) {
	w := l.w
	for ci := range e.Star {
		sp := l.span[ci]
		if sp.i1 < sp.i0 {
			continue
		}
		c := &e.Star[ci]
		s0, s1, s2 := rowSums2(l.e[ci*w+sp.i0:ci*w+sp.i1+1], ws[sp.i0:], dxs[sp.i0:], c.MuX)
		fold2(m.star[ci*momLen2:], s0, s1, s2, dy-c.MuY)
	}
	nStar := len(e.Star)
	for ci := range e.Gal {
		sp := l.span[nStar+ci]
		if sp.i1 < sp.i0 {
			continue
		}
		c := &e.Gal[ci]
		r := (nStar + ci) * w
		erow := l.e[r+sp.i0 : r+sp.i1+1]
		d2 := dy - c.MuY
		mm := m.gal[ci*momLen4 : (ci+1)*momLen4]
		if !deg4 {
			s0, s1, s2 := rowSums2(erow, wg[sp.i0:], dxs[sp.i0:], c.MuX)
			fold2(mm, s0, s1, s2, d2)
			continue
		}
		s0, s1, s2, s3, s4 := rowSums4(erow, wg[sp.i0:], dxs[sp.i0:], c.MuX)
		fold2(mm, s0, s1, s2, d2)
		y2 := d2 * d2
		y3 := y2 * d2
		mm[m30] += s3
		mm[m21] += s2 * d2
		mm[m12] += s1 * y2
		mm[m03] += s0 * y3
		mm[m40] += s4
		mm[m31] += s3 * d2
		mm[m22] += s2 * y2
		mm[m13] += s1 * y3
		mm[m04] += s0 * (y2 * y2)
	}
}

// posCoef holds a component's position-derivative coefficients: with
// J = ∂(d1, d2)/∂(u0, u1) the (negated) world-to-pixel Jacobian,
// ∂q/∂u_j = 2·(a[j]·d1 + b[j]·d2) and ∂²q/∂u_i∂u_j = hs[packed(i, j)].
type posCoef struct {
	a, b [2]float64
	hs   [3]float64
}

func (e *Evaluator) posCoef(q11, q12, q22 float64) (p posCoef) {
	g1 := [2]float64{-e.jac.A11, -e.jac.A12}
	g2 := [2]float64{-e.jac.A21, -e.jac.A22}
	for j := 0; j < 2; j++ {
		p.a[j] = q11*g1[j] + q12*g2[j]
		p.b[j] = q12*g1[j] + q22*g2[j]
	}
	p.hs[0] = 2 * (p.a[0]*g1[0] + p.b[0]*g2[0])
	p.hs[1] = 2 * (p.a[1]*g1[0] + p.b[1]*g2[0])
	p.hs[2] = 2 * (p.a[1]*g1[1] + p.b[1]*g2[1])
	return
}

// MomentGrad adds Σ_px ωs·∇gs + ωg·∇gg, contracted from m's degree ≤ 2
// moments, to grad. It reads only the V and G parts of the component duals,
// so it serves evaluators built by Build and BuildGrad alike.
func (e *Evaluator) MomentGrad(m *Moments, grad *[dual.N]float64) {
	for ci := range e.Star {
		c := &e.Star[ci]
		mm := m.star[ci*momLen2 : (ci+1)*momLen2]
		pc := e.posCoef(c.Q11.V, c.Q12.V, c.Q22.V)
		kv := c.K.V
		grad[0] -= kv * (pc.a[0]*mm[m10] + pc.b[0]*mm[m01])
		grad[1] -= kv * (pc.a[1]*mm[m10] + pc.b[1]*mm[m01])
	}
	for ci := range e.Gal {
		c := &e.Gal[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		mm := m.gal[ci*momLen4 : ci*momLen4+momLen2]
		pc := e.posCoef(c.Q11.V, c.Q12.V, c.Q22.V)
		grad[0] -= kv * (pc.a[0]*mm[m10] + pc.b[0]*mm[m01])
		grad[1] -= kv * (pc.a[1]*mm[m10] + pc.b[1]*mm[m01])
		for k := 2; k < dual.N; k++ {
			var qm2 float64 // Q does not depend on the profile mix (k = 2)
			if k >= 3 {
				qm2 = c.Q11.G[k-3]*mm[m20] + 2*c.Q12.G[k-3]*mm[m11] + c.Q22.G[k-3]*mm[m02]
			}
			grad[k] += c.K.G[k-2]*mm[m00] - 0.5*kv*qm2
		}
	}
}

// MomentHess adds Σ_px ωs·∇²gs + ωg·∇²gg, contracted from m's moments
// (accumulated by AccumRow with deg4 set), to the packed lower triangle hess.
// e must have been built by Build.
func (e *Evaluator) MomentHess(m *Moments, hess *[dual.HessLen]float64) {
	g1 := [2]float64{-e.jac.A11, -e.jac.A12}
	g2 := [2]float64{-e.jac.A21, -e.jac.A22}

	// posPos adds the position-position block of one component: with
	// ∂_j f = −K·E·(a_j·d1 + b_j·d2),
	// ∂_ij f = K·E·((a_i·d1 + b_i·d2)(a_j·d1 + b_j·d2) − hs_ij/2).
	posPos := func(kv float64, pc *posCoef, mm []float64) {
		k := 0
		for i := 0; i < 2; i++ {
			for j := 0; j <= i; j++ {
				hess[k] += kv * (pc.a[i]*pc.a[j]*mm[m20] +
					(pc.a[i]*pc.b[j]+pc.b[i]*pc.a[j])*mm[m11] +
					pc.b[i]*pc.b[j]*mm[m02] - 0.5*pc.hs[k]*mm[m00])
				k++
			}
		}
	}

	for ci := range e.Star {
		c := &e.Star[ci]
		pc := e.posCoef(c.Q11.V, c.Q12.V, c.Q22.V)
		posPos(c.K.V, &pc, m.star[ci*momLen2:(ci+1)*momLen2])
	}

	for ci := range e.Gal {
		c := &e.Gal[ci]
		kv := c.K.V
		if kv == 0 {
			continue
		}
		mm := m.gal[ci*momLen4 : (ci+1)*momLen4]
		pc := e.posCoef(c.Q11.V, c.Q12.V, c.Q22.V)
		posPos(kv, &pc, mm)

		// Shape coordinate k enters through K and, for k ≥ 3, through the
		// quadratic form q_k = qa·d1² + qb·d1·d2 + qc·d2² (Q does not depend
		// on the profile mix, k = 2). Contract each q_k with the degree-2, -3
		// and -4 moments once per coordinate:
		//   qm2[k]  = Σ ω·E·q_k
		//   t3[k]   = Σ ω·E·q_k·(d1, d2)
		//   r4[k]   = Σ ω·E·q_k·(d1², d1·d2, d2²)
		var qa, qb, qc, qm2 [dual.N]float64
		var t3 [dual.N][2]float64
		var r4 [dual.N][3]float64
		for k := 3; k < dual.N; k++ {
			a, b, cc := c.Q11.G[k-3], 2*c.Q12.G[k-3], c.Q22.G[k-3]
			qa[k], qb[k], qc[k] = a, b, cc
			qm2[k] = a*mm[m20] + b*mm[m11] + cc*mm[m02]
			t3[k][0] = a*mm[m30] + b*mm[m21] + cc*mm[m12]
			t3[k][1] = a*mm[m21] + b*mm[m12] + cc*mm[m03]
			r4[k][0] = a*mm[m40] + b*mm[m31] + cc*mm[m22]
			r4[k][1] = a*mm[m31] + b*mm[m22] + cc*mm[m13]
			r4[k][2] = a*mm[m22] + b*mm[m13] + cc*mm[m04]
		}
		for k := 2; k < dual.N; k++ {
			base := k * (k + 1) / 2
			kg := c.K.G[k-2]
			// Shape-position: K has no position derivative, so
			// ∂_kj f = −(q_j/2)·∂_k f − (K/2)·E·∂_k∂_j q with
			// ∂_k f = E·(K_k − K·q_k/2), q_j = 2(a_j·d1 + b_j·d2) and
			// ∂_k∂_j q = 2(akj·d1 + bkj·d2).
			for j := 0; j < 2; j++ {
				var akj, bkj float64
				if k >= 3 {
					akj = c.Q11.G[k-3]*g1[j] + c.Q12.G[k-3]*g2[j]
					bkj = c.Q12.G[k-3]*g1[j] + c.Q22.G[k-3]*g2[j]
				}
				hess[base+j] += -kg*(pc.a[j]*mm[m10]+pc.b[j]*mm[m01]) +
					0.5*kv*(pc.a[j]*t3[k][0]+pc.b[j]*t3[k][1]) -
					kv*(akj*mm[m10]+bkj*mm[m01])
			}
			// Shape-shape:
			// ∂_kl f = E·(K_kl − (K_k·q_l + K_l·q_k)/2 − K·q_kl/2 + K·q_k·q_l/4).
			for l := 2; l <= k; l++ {
				h := base + l
				var qkl float64
				if l >= 3 {
					hq := dual.Idx(k-3, l-3)
					qkl = c.Q11.H[hq]*mm[m20] + 2*c.Q12.H[hq]*mm[m11] + c.Q22.H[hq]*mm[m02]
				}
				hess[h] += c.K.H[dual.Idx(k-2, l-2)]*mm[m00] -
					0.5*(kg*qm2[l]+c.K.G[l-2]*qm2[k]) -
					0.5*kv*qkl +
					0.25*kv*(qa[l]*r4[k][0]+qb[l]*r4[k][1]+qc[l]*r4[k][2])
			}
		}
	}
}
