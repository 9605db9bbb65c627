// Package elbo evaluates Celeste's variational objective for one light
// source's model.ParamDim-parameter block: the expected Poisson log
// likelihood of every active pixel under the delta-method approximation of
// E[log F] (Regier et al. 2015), minus the KL divergence from the priors with
// the color-prior responsibilities profiled out in closed form. Evaluation
// returns the value, the exact ParamDim-dimensional gradient, and the exact
// ParamDim x ParamDim Hessian that the Newton trust-region optimizer
// consumes.
//
// Derivatives are assembled by a sparse block chain rule, mirroring the
// paper's hand-coded derivatives (Section V):
//
//   - the six spatial parameters flow through the per-pixel Gaussian-mixture
//     densities (internal/dual, internal/mog);
//   - the 21 brightness parameters flow through per-band flux moments and
//     the KL terms, both differentiated once per evaluation in closed form
//     (moments.go; internal/ad is the tests' oracle for both);
//   - per pixel, only a rank-2 chain (source mean counts m and second moment
//     e2) connects the blocks, so the Hessian assembly is O(ParamDim²) per
//     pixel instead of O(ParamDim²) per arithmetic operation.
package elbo

import (
	"math"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/sliceutil"
)

// Patch is one image's active-pixel window around the source being
// optimized. Obs holds observed counts; Bg holds the expected counts from
// everything that is *not* this source (sky plus neighbors, which block
// coordinate ascent holds fixed); VBg holds the neighbors' variance
// contribution.
type Patch struct {
	Band int
	Rect geom.PixRect
	WCS  geom.WCS
	PSF  mog.Mixture
	Iota float64

	Obs []float64 // observed counts, Rect row-major
	Bg  []float64 // background expected counts per pixel
	VBg []float64 // background variance per pixel

	// Background-term prefix sums for active-pixel culling: pixels outside
	// the source's culling radius contribute only the theta-independent term
	// obs·(log bg − vbg/(2bg²)) − bg, so each evaluation folds whole culled
	// rows and row strips in via prefix sums instead of visiting the pixels.
	// Built lazily on first use; a neighbor fold invalidates (it mutates Bg).
	bgPref    []float64 // per-row prefixes, Height x (Width+1)
	bgRowPref []float64 // cumulative full-row sums, Height+1
	bgPrefOK  bool
}

// ensureBgPrefix builds the background-term prefix sums (see the field
// comment). Pixels with non-positive background contribute zero, mirroring
// the ef <= 0 guard of the pixel loop.
func (p *Patch) ensureBgPrefix() {
	if p.bgPrefOK {
		return
	}
	w, h := p.Rect.Width(), p.Rect.Height()
	p.bgPref = sliceutil.Grow(p.bgPref, h*(w+1))
	p.bgRowPref = sliceutil.Grow(p.bgRowPref, h+1)
	p.bgRowPref[0] = 0
	k := 0
	for y := 0; y < h; y++ {
		row := p.bgPref[y*(w+1) : (y+1)*(w+1)]
		row[0] = 0
		for x := 0; x < w; x++ {
			obs, bg, vbg := p.Obs[k], p.Bg[k], p.VBg[k]
			k++
			var t float64
			if bg > 0 {
				inv := 1 / bg
				t = obs*(math.Log(bg)-vbg*inv*inv/2) - bg
			}
			row[x+1] = row[x] + t
		}
		p.bgRowPref[y+1] = p.bgRowPref[y] + row[w]
	}
	p.bgPrefOK = true
}

// bgOutside returns the summed background-only objective over every patch
// pixel outside the swept sub-rectangle [x0,x1) x [y0,y1) (absolute pixel
// coordinates, already clipped to Rect). An empty swept rectangle yields the
// whole patch. When nothing is culled it returns 0 without building the
// prefix sums.
func (p *Patch) bgOutside(x0, y0, x1, y1 int) float64 {
	if x0 >= x1 || y0 >= y1 {
		p.ensureBgPrefix()
		return p.bgRowPref[p.Rect.Height()]
	}
	if x0 == p.Rect.X0 && y0 == p.Rect.Y0 && x1 == p.Rect.X1 && y1 == p.Rect.Y1 {
		return 0
	}
	p.ensureBgPrefix()
	w, h := p.Rect.Width(), p.Rect.Height()
	ry0, ry1 := y0-p.Rect.Y0, y1-p.Rect.Y0
	lx, rx := x0-p.Rect.X0, x1-p.Rect.X0
	v := p.bgRowPref[ry0] + (p.bgRowPref[h] - p.bgRowPref[ry1])
	for y := ry0; y < ry1; y++ {
		row := p.bgPref[y*(w+1) : (y+1)*(w+1)]
		v += row[lx] + (row[w] - row[rx])
	}
	return v
}

// Problem is the per-source optimization problem: the active patches plus
// the priors.
type Problem struct {
	Priors  *model.Priors
	Patches []*Patch

	// PosPenalty is a weak Gaussian penalty (1/variance, deg^-2) anchoring
	// the position to PosAnchor. It regularizes the rare fully-degenerate
	// case (a source fainter than sky noise) exactly as a broad position
	// prior would; with any real signal it is negligible.
	PosPenalty float64
	PosAnchor  geom.Pt2

	// PosBound is the fit's position domain half-width in degrees around
	// PosAnchor (0 disables the bound). The patches only cover this much
	// sky around the anchor, so an iterate beyond it has no pixel support:
	// the likelihood gradient vanishes and a fit could "converge" in empty
	// space against nothing but the weak anchor. The optimizer treats
	// out-of-bounds trial points as +Inf (see InBounds), making the patch
	// window an explicit trust-region domain constraint.
	PosBound float64

	// PixScale is the finest pixel scale, in degrees per pixel, among the
	// frames whose patches the problem holds (0 when unknown). It is the
	// unit of the fit's per-step position bound (vi, maxPosStepPx).
	PixScale float64
}

// InBounds reports whether theta's position lies within the problem's
// position domain (always true when PosBound is 0).
func (pb *Problem) InBounds(theta *model.Params) bool {
	if pb.PosBound <= 0 {
		return true
	}
	return math.Abs(theta[model.ParamRA]-pb.PosAnchor.RA) <= pb.PosBound &&
		math.Abs(theta[model.ParamDec]-pb.PosAnchor.Dec) <= pb.PosBound
}

// neighborScratch owns the buffers one neighbor fold needs; the Builder
// retains one so the per-fit neighbor folds allocate nothing in steady state.
type neighborScratch struct {
	comb            []mog.ProfComp
	mix             mog.Mixture
	star, gal       []mog.ValueComp
	starGen, galGen mog.EGen // row-to-row state of star and gal
	dxs, rowS, rowG []float64
}

// addNeighborToPatch folds one neighbor into one patch through the value row
// kernel: the neighbor's appearance mixtures are compiled once, the patch
// rectangle is clipped to the neighbor's culling radius (outside it the
// truncated densities are identically zero, so the fold is a no-op), and
// each remaining row is swept with the exp-free recurrence kernel.
func addNeighborToPatch(p *Patch, c *model.Constrained, ns *neighborScratch) {
	// Per-band flux moments for both types.
	m1s, m2s := model.FluxMoments(c.R1[model.Star], c.R2[model.Star], c.C1[model.Star], c.C2[model.Star])
	m1g, m2g := model.FluxMoments(c.R1[model.Gal], c.R2[model.Gal], c.C1[model.Gal], c.C2[model.Gal])
	chiG := c.ProbGal
	chiS := 1 - chiG
	b := p.Band

	// Spatial mixtures centered at the neighbor's position.
	px, py := p.WCS.WorldToPix(c.Pos)
	ns.comb = appendProfileBlend(ns.comb[:0], c.GalDevFrac)
	ns.mix = mog.GalaxyMixtureInto(ns.mix[:0], p.PSF, ns.comb,
		clampAB(c.GalAxisRatio), c.GalAngle, clampScale(c.GalScale),
		model.JacFromWCS(p.WCS))

	// Skip neighbors whose light cannot reach the patch.
	reach := model.RenderRadiusPx(ns.mix, 0, 0, 6) + model.RenderRadiusPx(p.PSF, 0, 0, 6)
	if px < float64(p.Rect.X0)-reach || px > float64(p.Rect.X1)+reach ||
		py < float64(p.Rect.Y0)-reach || py > float64(p.Rect.Y1)+reach {
		return
	}

	ns.star = mog.CompileInto(ns.star[:0], p.PSF)
	ns.gal = mog.CompileInto(ns.gal[:0], ns.mix)
	r := mog.ValueBoundingRadiusPx(ns.star)
	if rg := mog.ValueBoundingRadiusPx(ns.gal); rg > r {
		r = rg
	}
	x0, y0, x1, y1 := cullRect(p.Rect, px, py, r)
	if x0 >= x1 || y0 >= y1 {
		return
	}
	w := x1 - x0
	ns.dxs = sliceutil.Grow(ns.dxs, w)
	ns.rowS = sliceutil.Grow(ns.rowS, w)
	ns.rowG = sliceutil.Grow(ns.rowG, w)
	dxs, rowS, rowG := ns.dxs[:w], ns.rowS[:w], ns.rowG[:w]
	for i := range dxs {
		dxs[i] = float64(x0+i) - px
	}

	iota := p.Iota
	rectW := p.Rect.Width()
	ns.starGen.Reset()
	ns.galGen.Reset()
	for y := y0; y < y1; y++ {
		dy := float64(y) - py
		ns.starGen.SweepRowValue(rowS, ns.star, dxs, dy)
		ns.galGen.SweepRowValue(rowG, ns.gal, dxs, dy)
		k := (y-p.Rect.Y0)*rectW + (x0 - p.Rect.X0)
		for i := 0; i < w; i++ {
			gs, gg := rowS[i], rowG[i]
			ef := iota * (chiS*m1s[b]*gs + chiG*m1g[b]*gg)
			e2 := iota * iota * (chiS*m2s[b]*gs*gs + chiG*m2g[b]*gg*gg)
			p.Bg[k+i] += ef
			p.VBg[k+i] += math.Max(e2-ef*ef, 0)
		}
	}
	p.bgPrefOK = false
}

// appendProfileBlend appends the galaxy's radial-profile mixture — the
// exponential and de Vaucouleurs components blended by the deV fraction rho —
// to dst and returns it. Both the neighbor path and the value-only
// evaluation path build their mixtures from this one blend.
func appendProfileBlend(dst []mog.ProfComp, rho float64) []mog.ProfComp {
	for _, pc := range expProf {
		dst = append(dst, mog.ProfComp{Weight: (1 - rho) * pc.Weight, Var: pc.Var})
	}
	for _, pc := range devProf {
		dst = append(dst, mog.ProfComp{Weight: rho * pc.Weight, Var: pc.Var})
	}
	return dst
}

// clampAB and clampScale keep degenerate galaxy shapes (collapsed axis ratio
// or scale) numerically evaluable.
func clampAB(ab float64) float64       { return math.Max(ab, 0.02) }
func clampScale(scale float64) float64 { return math.Max(scale, 1e-8) }
