// Package model defines Celeste's statistical model: the ParamDim-parameter
// description of one light source (Section III of the paper), the prior
// distributions Φ, Υ, Ξ learned from preexisting catalogs, band-flux moments
// under the variational posterior, catalog entries, and image synthesis from
// the generative model.
//
// Every light source s carries:
//
//   - a_s: star vs. galaxy indicator (Bernoulli; 1 parameter, the log-odds
//     of galaxy against star, stored over LogOddsScale);
//   - r_s: reference-band flux (log-normal; 2 parameters per source type);
//   - c_s: four colors, the log flux ratios of adjacent bands (normal with
//     diagonal covariance; 4 means + 4 variances per type);
//   - μ_s: sky position (2 parameters, point-estimated);
//   - φ_s: galaxy shape — de Vaucouleurs mixture fraction, minor/major axis
//     ratio, orientation angle, half-light radius (4 parameters,
//     point-estimated).
//
// Total: 1 + 2 + 2·2 + 2·(4+4) + 4 = 27. The paper's count of 44 is
// 27 + 16 + 1: it adds the variational responsibilities k_s over each type's
// 8-component color-prior mixture (2·8 = 16 softmax logits), and it writes
// a_s as a two-logit softmax, whose second logit is redundant because only
// the difference of the two enters. The responsibilities enter the ELBO
// only through one term per type, whose maximum over them has the closed
// form −log Σ_d π_d·exp(−KL_c(t,d)) (internal/elbo), so they are profiled
// out rather than stored: the ELBO's maximum over the other 27 is
// unchanged. Parameters are stored in a single unconstrained vector (logit
// and log transforms applied) so the Newton trust-region optimizer can
// treat the block as a free ParamDim-dimensional variable.
package model

import (
	"math"

	"celeste/internal/geom"
	"celeste/internal/mathx"
)

// Model-wide dimensions.
const (
	NumBands      = 5 // SDSS ugriz
	RefBand       = 2 // the r band anchors brightness
	NumColors     = NumBands - 1
	NumTypes      = 2 // star, galaxy
	NumPriorComps = 8 // components of the color-prior mixture per type
	ParamDim      = 27
)

// Source types.
const (
	Star = 0
	Gal  = 1
)

// Unconstrained parameter vector layout.
const (
	ParamRA          = 0  // position, degrees (unconstrained)
	ParamDec         = 1  //
	ParamGalDevLogit = 2  // galaxy profile mix: logit of the deV fraction
	ParamGalABLogit  = 3  // galaxy axis ratio: logit
	ParamGalAngle    = 4  // orientation, radians (unconstrained, mod π)
	ParamGalLogScale = 5  // log half-light radius (log degrees)
	ParamTypeLogOdds = 6  // a/LogOddsScale for the type log-odds a = log(q_gal/q_star)
	ParamR1          = 7  // +t: log-normal location of reference flux, type t
	ParamR2          = 9  // +t: log of the log-normal variance, type t
	ParamC1          = 11 // +4t+i: color mean i for type t
	ParamC2          = 19 // +4t+i: log color variance i for type t
)

// LogOddsScale is a/u: the vector stores the type log-odds a as
// u = a/√2. The Newton trust region measures steps in the stored
// coordinates, and a step that moves a by δ moves u by δ/√2, the length it
// had over a pair of softmax logits (t_star, t_gal) with a = t_gal − t_star
// moved by ∓δ/2 each. A plain a gives the type √2 less room in a
// boundary step than the pair did (DESIGN.md "One type coordinate").
const LogOddsScale = math.Sqrt2

// Params is the unconstrained ParamDim-vector for one light source.
type Params [ParamDim]float64

// TypeLogOdds returns the type log-odds a = log(q_gal/q_star).
func (p *Params) TypeLogOdds() float64 { return LogOddsScale * p[ParamTypeLogOdds] }

// Constrained is the human-readable, constrained view of Params.
type Constrained struct {
	Pos geom.Pt2

	// Galaxy shape (point estimates).
	GalDevFrac   float64 // ρ ∈ (0,1): weight on the de Vaucouleurs profile
	GalAxisRatio float64 // ∈ (0,1): minor/major
	GalAngle     float64 // radians in [0, π)
	GalScale     float64 // half-light radius, degrees

	ProbGal float64 // q(a_s = galaxy)

	R1 [NumTypes]float64            // log-normal location of ref flux
	R2 [NumTypes]float64            // log-normal variance (>0)
	C1 [NumTypes][NumColors]float64 // color means
	C2 [NumTypes][NumColors]float64 // color variances (>0)
}

// Constrained converts the unconstrained vector to its constrained view.
func (p *Params) Constrained() Constrained {
	var c Constrained
	c.Pos = geom.Pt2{RA: p[ParamRA], Dec: p[ParamDec]}
	c.GalDevFrac = mathx.Logistic(p[ParamGalDevLogit])
	c.GalAxisRatio = mathx.Logistic(p[ParamGalABLogit])
	c.GalAngle = mathx.WrapAngle(p[ParamGalAngle])
	c.GalScale = math.Exp(p[ParamGalLogScale])
	c.ProbGal = mathx.Logistic(p.TypeLogOdds())
	for t := 0; t < NumTypes; t++ {
		c.R1[t] = p[ParamR1+t]
		c.R2[t] = math.Exp(p[ParamR2+t])
		for i := 0; i < NumColors; i++ {
			c.C1[t][i] = p[ParamC1+4*t+i]
			c.C2[t][i] = math.Exp(p[ParamC2+4*t+i])
		}
	}
	return c
}

// FromConstrained builds the unconstrained vector from a constrained view;
// Constrained∘FromConstrained is the identity on valid inputs.
func FromConstrained(c Constrained) Params {
	var p Params
	p[ParamRA] = c.Pos.RA
	p[ParamDec] = c.Pos.Dec
	p[ParamGalDevLogit] = mathx.Logit(c.GalDevFrac)
	p[ParamGalABLogit] = mathx.Logit(c.GalAxisRatio)
	p[ParamGalAngle] = c.GalAngle
	p[ParamGalLogScale] = math.Log(c.GalScale)
	p[ParamTypeLogOdds] = mathx.Logit(c.ProbGal) / LogOddsScale
	for t := 0; t < NumTypes; t++ {
		p[ParamR1+t] = c.R1[t]
		p[ParamR2+t] = math.Log(c.R2[t])
		for i := 0; i < NumColors; i++ {
			p[ParamC1+4*t+i] = c.C1[t][i]
			p[ParamC2+4*t+i] = math.Log(c.C2[t][i])
		}
	}
	return p
}

// BandCoeff[b][i] gives the coefficient of color i in log flux of band b
// relative to the reference band: log ℓ_b = log r + Σ_i BandCoeff[b][i]·c_i.
// Color i is defined between bands i and i+1 (c_i = log ℓ_{i+1} - log ℓ_i).
var BandCoeff = func() [NumBands][NumColors]float64 {
	var bc [NumBands][NumColors]float64
	for b := 0; b < NumBands; b++ {
		switch {
		case b >= RefBand:
			for i := RefBand; i < b; i++ {
				bc[b][i] = 1
			}
		default:
			for i := b; i < RefBand; i++ {
				bc[b][i] = -1
			}
		}
	}
	return bc
}()

// FluxMoments returns the first and second moments of each band's flux under
// the variational posterior for one source type: log ℓ_b is normal with mean
// r1 + β_b·c1 and variance r2 + Σ β² c2.
func FluxMoments(r1, r2 float64, c1, c2 [NumColors]float64) (m1, m2 [NumBands]float64) {
	for b := 0; b < NumBands; b++ {
		m := r1
		v := r2
		for i := 0; i < NumColors; i++ {
			beta := BandCoeff[b][i]
			m += beta * c1[i]
			v += beta * beta * c2[i]
		}
		m1[b] = math.Exp(m + v/2)
		m2[b] = math.Exp(2*m + 2*v)
	}
	return
}

// ExpectedFluxes returns E[ℓ_b] for every band, mixing source types by
// ProbGal.
func (c *Constrained) ExpectedFluxes() [NumBands]float64 {
	m1s, _ := FluxMoments(c.R1[Star], c.R2[Star], c.C1[Star], c.C2[Star])
	m1g, _ := FluxMoments(c.R1[Gal], c.R2[Gal], c.C1[Gal], c.C2[Gal])
	var out [NumBands]float64
	for b := 0; b < NumBands; b++ {
		out[b] = (1-c.ProbGal)*m1s[b] + c.ProbGal*m1g[b]
	}
	return out
}

// ColorsFromFluxes converts a positive flux vector to the color vector
// (log ratios of adjacent bands).
func ColorsFromFluxes(flux [NumBands]float64) [NumColors]float64 {
	var c [NumColors]float64
	for i := 0; i < NumColors; i++ {
		c[i] = math.Log(flux[i+1] / flux[i])
	}
	return c
}

// FluxesFromColors reconstructs band fluxes from a reference-band flux and
// colors.
func FluxesFromColors(refFlux float64, c [NumColors]float64) [NumBands]float64 {
	var f [NumBands]float64
	f[RefBand] = refFlux
	for b := RefBand + 1; b < NumBands; b++ {
		f[b] = f[b-1] * math.Exp(c[b-1])
	}
	for b := RefBand - 1; b >= 0; b-- {
		f[b] = f[b+1] * math.Exp(-c[b])
	}
	return f
}
