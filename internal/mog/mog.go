// Package mog implements the two-dimensional Gaussian mixtures at the heart
// of Celeste's optical model. A point source appears on an image as the
// point-spread function (a small Gaussian mixture fitted per image); a galaxy
// appears as its intrinsic profile (itself approximated by a Gaussian
// mixture, see internal/galprof) convolved with the PSF. Because Gaussian
// mixtures are closed under convolution, every light source's appearance is
// again a Gaussian mixture, evaluated pixel by pixel.
//
// The package provides plain float64 evaluation (used when synthesizing
// images) and a dual-number evaluator that carries first and second
// derivatives with respect to the six spatial parameters of a source (used
// by the ELBO hot path; see internal/dual for the coordinate convention). Its
// galaxy components carry derivatives over the shape coordinates alone (see
// DualComp).
package mog

import (
	"math"

	"celeste/internal/dual"
)

// Component is one weighted 2-D Gaussian: Weight * N([x y]; Mu, Sigma).
// The density normalizes over the coordinate units of Sigma, so a mixture
// with covariances in pixels^2 integrates to Weight over the pixel grid.
type Component struct {
	Weight        float64
	MuX, MuY      float64
	Sxx, Sxy, Syy float64
}

// Eval returns the weighted density at (x, y).
func (c Component) Eval(x, y float64) float64 {
	det := c.Det()
	return c.Norm(det) * math.Exp(-0.5*c.Quad(det, x-c.MuX, y-c.MuY))
}

// Det returns the determinant of the component's covariance.
func (c Component) Det() float64 { return c.Sxx*c.Syy - c.Sxy*c.Sxy }

// Norm returns the component's density at its mean, Weight/(2π√det), given
// det = c.Det().
func (c Component) Norm(det float64) float64 {
	return c.Weight / (2 * math.Pi * math.Sqrt(det))
}

// Quad returns the quadratic form q = dᵀΣ⁻¹d of the offset d = (dx, dy) from
// the mean, given det = c.Det(); the density there is Norm·exp(−q/2). Eval and
// model.AddExpectedCounts both evaluate q here, so the two round alike on
// every architecture, multiply-add fusion included.
func (c Component) Quad(det, dx, dy float64) float64 {
	return (c.Syy*dx*dx - 2*c.Sxy*dx*dy + c.Sxx*dy*dy) / det
}

// Mixture is a sum of weighted Gaussian components.
type Mixture []Component

// Eval returns the mixture density at (x, y).
func (m Mixture) Eval(x, y float64) float64 {
	var s float64
	for _, c := range m {
		s += c.Eval(x, y)
	}
	return s
}

// TotalWeight returns the sum of component weights (the mixture's integral).
func (m Mixture) TotalWeight() float64 {
	var s float64
	for _, c := range m {
		s += c.Weight
	}
	return s
}

// Shift returns the mixture translated by (dx, dy).
func (m Mixture) Shift(dx, dy float64) Mixture {
	out := make(Mixture, len(m))
	for i, c := range m {
		c.MuX += dx
		c.MuY += dy
		out[i] = c
	}
	return out
}

// ProfComp is one circular component of a galaxy radial-profile mixture:
// a Gaussian with variance Var (in units of the squared half-light radius)
// and mass Weight.
type ProfComp struct {
	Weight, Var float64
}

// GalaxyCov returns the world-coordinate covariance of a galaxy with
// half-light radius sigma (degrees), minor/major axis ratio ab in (0, 1],
// and position angle radians (measured from the +RA axis toward +Dec).
func GalaxyCov(ab, angle, sigma float64) (w11, w12, w22 float64) {
	a := sigma * sigma
	b := a * ab * ab
	s, c := math.Sincos(angle)
	w11 = a*c*c + b*s*s
	w12 = (a - b) * s * c
	w22 = a*s*s + b*c*c
	return
}

// Jac2 is a constant 2x2 Jacobian (world -> pixel).
type Jac2 struct {
	A11, A12, A21, A22 float64
}

// Apply transforms a world covariance to pixel coordinates: J W Jᵀ.
func (j Jac2) Apply(w11, w12, w22 float64) (p11, p12, p22 float64) {
	// Row 1 of J*W: (A11*w11 + A12*w12, A11*w12 + A12*w22)
	t11 := j.A11*w11 + j.A12*w12
	t12 := j.A11*w12 + j.A12*w22
	t21 := j.A21*w11 + j.A22*w12
	t22 := j.A21*w12 + j.A22*w22
	p11 = t11*j.A11 + t12*j.A12
	p12 = t11*j.A21 + t12*j.A22
	p22 = t21*j.A21 + t22*j.A22
	return
}

// GalaxyMixture returns the pixel-space appearance mixture of a galaxy:
// profile components (unit total mass scaled by their weights) stretched by
// the shape covariance, transformed by jac, convolved with the PSF — Gaussian
// mixtures are closed under convolution, so the result has one component per
// (profile, PSF) pair with weights multiplied and covariances added. It
// integrates (over pixels) to prof's total weight times the PSF's total
// weight.
func GalaxyMixture(psf Mixture, prof []ProfComp, ab, angle, sigma float64, jac Jac2) Mixture {
	return GalaxyMixtureInto(make(Mixture, 0, len(prof)*len(psf)), psf, prof, ab, angle, sigma, jac)
}

// GalaxyMixtureInto is GalaxyMixture appending to dst; pass dst[:0] of a
// retained buffer for allocation-free reuse.
func GalaxyMixtureInto(dst Mixture, psf Mixture, prof []ProfComp, ab, angle, sigma float64, jac Jac2) Mixture {
	w11, w12, w22 := GalaxyCov(ab, angle, sigma)
	p11, p12, p22 := jac.Apply(w11, w12, w22)
	for _, pc := range prof {
		for _, pk := range psf {
			dst = append(dst, Component{
				Weight: pc.Weight * pk.Weight,
				MuX:    pk.MuX,
				MuY:    pk.MuY,
				Sxx:    pc.Var*p11 + pk.Sxx,
				Sxy:    pc.Var*p12 + pk.Sxy,
				Syy:    pc.Var*p22 + pk.Syy,
			})
		}
	}
	return dst
}

// ValueComp is one Gaussian component compiled for scalar evaluation: the
// normalization K = Weight/(2π√det Σ) and the precision entries Q = Σ⁻¹ are
// precomputed so the per-pixel cost is one quadratic form and (when within
// qCutoff) one exponential.
type ValueComp struct {
	K, Q11, Q12, Q22 float64
	MuX, MuY         float64

	// Row holds the row-sweep constants (see egen.go).
	Row rowConst
}

// CompileInto appends m's components in compiled form to dst and returns it;
// pass dst[:0] of a retained buffer for allocation-free reuse.
func CompileInto(dst []ValueComp, m Mixture) []ValueComp {
	for _, c := range m {
		det := c.Det()
		inv := 1 / det
		vc := ValueComp{
			K:   c.Norm(det),
			Q11: c.Syy * inv,
			Q12: -c.Sxy * inv,
			Q22: c.Sxx * inv,
			MuX: c.MuX, MuY: c.MuY,
		}
		vc.Row.set(vc.Q11, vc.Q12, vc.Q22)
		dst = append(dst, vc)
	}
	return dst
}

// EvalComps evaluates compiled components at (x, y), truncating components
// past qCutoff exactly like the derivative path does.
func EvalComps(comps []ValueComp, x, y float64) float64 {
	var s float64
	for i := range comps {
		c := &comps[i]
		d1, d2 := x-c.MuX, y-c.MuY
		q := c.Q11*d1*d1 + 2*c.Q12*d1*d2 + c.Q22*d2*d2
		if q > qCutoff {
			continue
		}
		s += c.K * math.Exp(-0.5*q)
	}
	return s
}

// DualComp is a precomputed Gaussian component whose normalization K and
// precision entries Q carry derivatives with respect to the source's shape
// coordinates, and only those: K depends on the profile mix, the axis ratio,
// the angle and the scale (coordinates 2..5), Q on the last three, and
// neither on the position (see internal/dual for the numbering). MuX, MuY
// are constant pixel offsets (the PSF component means).
type DualComp struct {
	K             dual.Tail4
	Q11, Q12, Q22 dual.Tail3
	MuX, MuY      float64

	// Row holds the row-sweep constants of the values Q11.V, Q12.V, Q22.V
	// (see egen.go).
	Row rowConst
}

// Evaluator evaluates a source's star and galaxy spatial densities at pixel
// offsets from the source center, carrying derivatives w.r.t. the six
// unconstrained spatial parameters. Build one per (source, image) pair per
// Newton iteration; evaluation is then allocation-free per pixel.
type Evaluator struct {
	Star []DualComp
	Gal  []DualComp
	jac  Jac2

	// galTab is the galaxy lane pass's constant table (see rowgrad.go), a
	// 16-byte-aligned view into galBuf. SweepRowGrad rewrites its per-row
	// entries, so an Evaluator sweeps one row at a time.
	galTab, galBuf []float64

	// gen carries the components' exponentials from row to row of the
	// patch the evaluator was built for (see egen.go).
	gen EGen
}

// NewEvaluator builds star and galaxy components for one source on one
// image. The galaxy's unconstrained shape parameters are the dual variables
// 3 (axis-ratio logit), 4 (angle), 5 (log half-light radius in degrees);
// variable 2 (profile mix) does not enter the spatial density — the
// exponential and de Vaucouleurs parts are kept as separate weighted
// component lists whose relative weight internal/elbo applies via the
// profile-mix dual. Here expProf and devProf are combined with the current
// mixing weight carried on the K duals.
func NewEvaluator(psf Mixture, expProf, devProf []ProfComp,
	rhoLogit, abLogit, angle, logScale float64, jac Jac2) *Evaluator {

	e := &Evaluator{}
	e.Build(psf, expProf, devProf, rhoLogit, abLogit, angle, logScale, jac)
	return e
}

// Build (re)initializes e in place with the same semantics as NewEvaluator,
// reusing the Star and Gal component storage from previous builds. After the
// component counts stabilize it allocates nothing, so one Evaluator can serve
// every (patch, iteration) pair of a fit. Build starts a patch: the next row
// sweep is the patch's first row, and each later one sweeps the row below
// the last.
//
// The chain runs in the shape subspace: the covariance and Q over
// coordinates 3..5 (dual.Tail3), the profile mix and K over 2..5
// (dual.Tail4). Each entry it carries is computed by the expression, in the
// order, that a chain of dual.Dual operations over all six coordinates uses
// for it, so K and Q hold that chain's bits (TestBuildBitwise).
func (e *Evaluator) Build(psf Mixture, expProf, devProf []ProfComp,
	rhoLogit, abLogit, angle, logScale float64, jac Jac2) {
	build[[6]float64, [10]float64](e, psf, expProf, devProf, rhoLogit, abLogit, angle, logScale, jac)
}

// BuildGrad is Build carrying first derivatives only: the same chain with
// empty Hessian arrays, so the V and G parts of every component's K and Q
// are Build's bit for bit (where the compiler does not fuse multiply-adds)
// and the H parts are zero. It serves the gradient tier, whose moment
// assembly (MomentGrad) reads no second derivative; calling MomentHess,
// SweepRow, EvalStar or EvalGal on an evaluator built this way is a bug.
func (e *Evaluator) BuildGrad(psf Mixture, expProf, devProf []ProfComp,
	rhoLogit, abLogit, angle, logScale float64, jac Jac2) {
	build[[0]float64, [0]float64](e, psf, expProf, devProf, rhoLogit, abLogit, angle, logScale, jac)
}

// build is Build with the Hessian arrays H3 (coordinates 3..5) and H4
// (2..5) of the chain's numbers as parameters: full for Build, empty for
// BuildGrad.
func build[H3 [0]float64 | [6]float64, H4 [0]float64 | [10]float64](e *Evaluator, psf Mixture, expProf, devProf []ProfComp,
	rhoLogit, abLogit, angle, logScale float64, jac Jac2) {

	type num3 = dual.Tail[[3]float64, H3]
	type num4 = dual.Tail[[4]float64, H4]

	e.jac = jac
	e.Star = starCompsInto(e.Star[:0], psf)
	e.Gal = e.Gal[:0]

	rho := dual.TailVar[[4]float64, H4](rhoLogit, 2)
	rho.Logistic(&rho)
	ab := dual.TailVar[[3]float64, H3](abLogit, 3)
	ab.Logistic(&ab)
	th := dual.TailVar[[3]float64, H3](angle, 4)
	sigma := dual.TailVar[[3]float64, H3](logScale, 5)
	sigma.Exp(&sigma)

	// World covariance W = R diag(s^2, (s*ab)^2) Rᵀ. The chain's numbers
	// are set in place through pointers (see dual.Tail); u is scratch.
	var a, b, s, c, s2, c2, w11, w12, w22, u num3
	a.Sqr(&sigma)
	b.Mul(&a, u.Sqr(&ab))
	s.Sin(&th)
	c.Cos(&th)
	s2.Sqr(&s)
	c2.Sqr(&c)
	w11.Add(w11.Mul(&a, &c2), u.Mul(&b, &s2))
	w12.Mul(w12.Sub(&a, &b), u.Mul(&s, &c))
	w22.Add(w22.Mul(&a, &s2), u.Mul(&b, &c2))

	// Pixel covariance P = J W Jᵀ.
	var t11, t12, t21, t22, p11, p12, p22 num3
	t11.Add(t11.Scale(&w11, jac.A11), u.Scale(&w12, jac.A12))
	t12.Add(t12.Scale(&w12, jac.A11), u.Scale(&w22, jac.A12))
	t21.Add(t21.Scale(&w11, jac.A21), u.Scale(&w12, jac.A22))
	t22.Add(t22.Scale(&w12, jac.A21), u.Scale(&w22, jac.A22))
	p11.Add(p11.Scale(&t11, jac.A11), u.Scale(&t12, jac.A12))
	p12.Add(p12.Scale(&t11, jac.A21), u.Scale(&t12, jac.A22))
	p22.Add(p22.Scale(&t21, jac.A21), u.Scale(&t22, jac.A22))

	// set3 stores a chain number in a component's field; with an empty H it
	// leaves the field's H zero.
	set3 := func(dst *dual.Tail3, x *num3) {
		dst.V, dst.G, dst.H = x.V, x.G, [6]float64{}
		for i := 0; i < len(x.H); i++ {
			dst.H[i] = x.H[i]
		}
	}

	var oneMinusRho num4
	oneMinusRho.AddConst(oneMinusRho.Neg(&rho), 1)
	var s11, s12, s22, det, invDet, q num3
	var k, u4 num4
	add := func(prof []ProfComp, mix *num4) {
		for _, pc := range prof {
			for _, pk := range psf {
				s11.AddConst(s11.Scale(&p11, pc.Var), pk.Sxx)
				s12.AddConst(s12.Scale(&p12, pc.Var), pk.Sxy)
				s22.AddConst(s22.Scale(&p22, pc.Var), pk.Syy)
				det.Sub(det.Mul(&s11, &s22), u.Sqr(&s12))
				invDet.Recip(&det)
				// K = wt · 1/sqrt(det), wt the mix scaled by the weights.
				dual.Widen(&k, u.Recip(u.Sqrt(&det)))
				k.Mul(u4.Scale(mix, pc.Weight*pk.Weight/(2*math.Pi)), &k)
				// Built in place: every field is assigned, so a reused
				// slot needs no clearing and no component is copied.
				n := len(e.Gal)
				if n < cap(e.Gal) {
					e.Gal = e.Gal[:n+1]
				} else {
					e.Gal = append(e.Gal, DualComp{})
				}
				dc := &e.Gal[n]
				dc.K.V, dc.K.G, dc.K.H = k.V, k.G, [10]float64{}
				for i := 0; i < len(k.H); i++ {
					dc.K.H[i] = k.H[i]
				}
				set3(&dc.Q11, q.Mul(&s22, &invDet))
				set3(&dc.Q12, q.Neg(q.Mul(&s12, &invDet)))
				set3(&dc.Q22, q.Mul(&s11, &invDet))
				dc.MuX, dc.MuY = pk.MuX, pk.MuY
				dc.Row.set(dc.Q11.V, dc.Q12.V, dc.Q22.V)
			}
		}
	}
	add(expProf, &oneMinusRho)
	add(devProf, &rho)
	e.fillGalTab()
	e.gen.Reset()
}

// ResetRows restarts the patch: the next row sweep is its first row again,
// with every component resynced exactly, so a repeated sweep of the same rows
// reproduces the first bit for bit.
func (e *Evaluator) ResetRows() { e.gen.Reset() }

// Resyncs returns the number of exact exponential resyncs the evaluator's
// row sweeps have made over its lifetime (see egen.go).
func (e *Evaluator) Resyncs() int64 { return e.gen.Resyncs() }

// starCompsInto appends the PSF's star components to dst and returns it.
func starCompsInto(dst []DualComp, psf Mixture) []DualComp {
	for _, c := range psf {
		det := c.Det()
		inv := 1 / det
		dc := DualComp{
			K:   dual.Tail4{V: c.Norm(det)},
			Q11: dual.Tail3{V: c.Syy * inv},
			Q12: dual.Tail3{V: -c.Sxy * inv},
			Q22: dual.Tail3{V: c.Sxx * inv},
			MuX: c.MuX, MuY: c.MuY,
		}
		dc.Row.set(dc.Q11.V, dc.Q12.V, dc.Q22.V)
		dst = append(dst, dc)
	}
	return dst
}

// qCutoff truncates component evaluation once the Gaussian exponent
// quadratic exceeds this value: exp(-25) ≈ 1.4e-11 of the peak density,
// far below photon noise. The scalar pre-check costs six multiplies and
// saves the full second-order dual chain on the many pixels each narrow
// component cannot reach.
const qCutoff = 50

// evalComps evaluates a component list at pixel offset (dx, dy) from the
// source center (in pixels), lifting each component's K and Q to dual.Dual
// over all six coordinates; it is the per-pixel oracle of the row sweeps.
// The position derivative flows through d = pix - srcPix(u) - mu with
// d(srcPix)/du = jac.
//
// The per-component chain rule is hand-fused (the paper's Section V move)
// rather than composed from generic dual ops: the position variables (0, 1)
// enter only through the linear offsets d1, d2 — constant gradient, zero
// curvature — and the shape variables (2..5) only through the precomputed
// K and Q duals. Exploiting that sparsity directly avoids materializing
// ~10 full 28-entry dual temporaries per component per pixel, which
// profiling shows is dominated by struct copying, not arithmetic.
func (e *Evaluator) evalComps(comps []DualComp, dx, dy float64) dual.Dual {
	// ∂d1/∂(u0,u1) and ∂d2/∂(u0,u1).
	g10, g11 := -e.jac.A11, -e.jac.A12
	g20, g21 := -e.jac.A21, -e.jac.A22

	var acc dual.Dual
	var qG [dual.N]float64
	var qH [dual.HessLen]float64
	for ci := range comps {
		c := &comps[ci]
		d1 := dx - c.MuX
		d2 := dy - c.MuY
		s11, s12, s22 := d1*d1, d1*d2, d2*d2
		qv := c.Q11.V*s11 + 2*c.Q12.V*s12 + c.Q22.V*s22
		if qv > qCutoff {
			continue
		}
		kD, q11D, q12D, q22D := c.K.Lift(), c.Q11.Lift(), c.Q12.Lift(), c.Q22.Lift()

		// q = Q11·d1² + 2·Q12·d1·d2 + Q22·d2².
		// Gradient: position through (d1, d2), shape through Q.
		tq1 := 2 * (c.Q11.V*d1 + c.Q12.V*d2) // ∂q/∂d1
		tq2 := 2 * (c.Q12.V*d1 + c.Q22.V*d2) // ∂q/∂d2
		qG[0] = tq1*g10 + tq2*g20
		qG[1] = tq1*g11 + tq2*g21
		for k := 2; k < dual.N; k++ {
			qG[k] = q11D.G[k]*s11 + 2*q12D.G[k]*s12 + q22D.G[k]*s22
		}

		// Hessian, by block. Position-position: d is linear in u, so
		// ∂²q = 2(Q11·∂d1∂d1 + Q12·(∂d1∂d2 + ∂d2∂d1) + Q22·∂d2∂d2).
		qH[0] = 2 * (c.Q11.V*g10*g10 + 2*c.Q12.V*g10*g20 + c.Q22.V*g20*g20)
		qH[1] = 2 * (c.Q11.V*g10*g11 + c.Q12.V*(g10*g21+g11*g20) + c.Q22.V*g20*g21)
		qH[2] = 2 * (c.Q11.V*g11*g11 + 2*c.Q12.V*g11*g21 + c.Q22.V*g21*g21)
		// Shape-position: ∂shape(Q) times ∂pos(d-products), where
		// ∂j(s11, s12, s22) = (2·d1·∂jd1, ∂jd1·d2 + d1·∂jd2, 2·d2·∂jd2).
		for i := 2; i < dual.N; i++ {
			base := i * (i + 1) / 2
			qH[base] = q11D.G[i]*(2*d1*g10) + 2*q12D.G[i]*(g10*d2+d1*g20) + q22D.G[i]*(2*d2*g20)
			qH[base+1] = q11D.G[i]*(2*d1*g11) + 2*q12D.G[i]*(g11*d2+d1*g21) + q22D.G[i]*(2*d2*g21)
			// Shape-shape: d-products are shape-constants.
			for j := 2; j <= i; j++ {
				k := base + j
				qH[k] = q11D.H[k]*s11 + 2*q12D.H[k]*s12 + q22D.H[k]*s22
			}
		}

		// f = K·E with E = exp(-q/2):
		//   ∂if  = E·(∂iK − ½·K·∂iq)
		//   ∂ijf = E·(∂ijK − ½(∂iK·∂jq + ∂jK·∂iq) − ½·K·∂ijq + ¼·K·∂iq·∂jq)
		ev := math.Exp(-0.5 * qv)
		kv := c.K.V
		acc.V += kv * ev
		for i := 0; i < dual.N; i++ {
			acc.G[i] += ev * (kD.G[i] - 0.5*kv*qG[i])
		}
		k := 0
		for i := 0; i < dual.N; i++ {
			kgi, qgi := kD.G[i], qG[i]
			for j := 0; j <= i; j++ {
				acc.H[k] += ev * (kD.H[k] -
					0.5*(kgi*qG[j]+kD.G[j]*qgi) -
					0.5*kv*qH[k] +
					0.25*kv*qgi*qG[j])
				k++
			}
		}
	}
	return acc
}

// EvalStar returns the star spatial density (per pixel) at offset (dx, dy)
// in pixels from the source center, with derivatives.
func (e *Evaluator) EvalStar(dx, dy float64) dual.Dual {
	return e.evalComps(e.Star, dx, dy)
}

// EvalGal returns the galaxy spatial density (per pixel) at offset (dx, dy)
// in pixels from the source center, with derivatives. The profile-mix weight
// is already folded into the component normalizations.
func (e *Evaluator) EvalGal(dx, dy float64) dual.Dual {
	return e.evalComps(e.Gal, dx, dy)
}
