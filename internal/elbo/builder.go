package elbo

import (
	"math"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/sliceutil"
	"celeste/internal/survey"
)

// Builder is how a Problem is built and how neighbors are folded into it. It
// owns the problem's storage — patch structs, their pixel buffers (including
// the background prefix sums), and the neighbor-fold scratch — and retains
// all of it across builds, so the block coordinate ascent inner loop
// (thousands of Build/AddNeighbor/fit cycles per task) touches the heap only
// while patch shapes are still growing. A Builder serves one goroutine; the
// Problem returned by Build, patches included, is valid until the next Build
// on the same Builder. The zero value is ready to use.
type Builder struct {
	pb      Problem
	patches []*Patch
	ns      neighborScratch
}

// Build assembles the per-source optimization problem from survey images:
// for each image whose footprint contains the source position, an active
// window of radiusPx pixels around the source becomes a patch with sky
// background. Neighbor contributions are folded in afterwards with
// AddNeighbor.
func (b *Builder) Build(priors *model.Priors, images []*survey.Image, pos geom.Pt2, radiusPx float64) *Problem {
	pb := &b.pb
	// The anchor SD (1e-3 deg ≈ 9 px) is far looser than any detectable
	// source's posterior, so it only catches the fully-degenerate case.
	pb.Priors = priors
	pb.PosPenalty = 1 / (1e-3 * 1e-3)
	pb.PosAnchor = pos
	pb.PosBound = 0
	pb.Patches = pb.Patches[:0]
	used := 0
	for _, im := range images {
		px, py := im.WCS.WorldToPix(pos)
		if px < -radiusPx || py < -radiusPx ||
			px > float64(im.W)+radiusPx || py > float64(im.H)+radiusPx {
			continue
		}
		rect := geom.PixRect{
			X0: int(math.Floor(px - radiusPx)), Y0: int(math.Floor(py - radiusPx)),
			X1: int(math.Ceil(px+radiusPx)) + 1, Y1: int(math.Ceil(py+radiusPx)) + 1,
		}.Clip(im.W, im.H)
		if rect.Empty() {
			continue
		}
		var p *Patch
		if used < len(b.patches) {
			p = b.patches[used]
		} else {
			p = &Patch{}
			b.patches = append(b.patches, p)
		}
		used++
		n := rect.Width() * rect.Height()
		p.Band, p.Rect, p.WCS, p.PSF, p.Iota = im.Band, rect, im.WCS, im.PSF, im.Iota
		p.Obs = sliceutil.Grow(p.Obs, n)
		p.Bg = sliceutil.Grow(p.Bg, n)
		p.VBg = sliceutil.Grow(p.VBg, n)
		p.bgPrefOK = false
		k := 0
		for y := rect.Y0; y < rect.Y1; y++ {
			for x := rect.X0; x < rect.X1; x++ {
				p.Obs[k] = im.At(x, y)
				p.Bg[k] = im.Sky
				p.VBg[k] = 0
				k++
			}
		}
		pb.Patches = append(pb.Patches, p)
		// The patches cover radiusPx of sky around the anchor: bound the
		// fit's position domain to match (see Problem.PosBound).
		if b := radiusPx * im.WCS.PixScale(); pb.PosBound == 0 || b < pb.PosBound {
			pb.PosBound = b
		}
	}
	return pb
}

// AddNeighbor folds a fixed neighboring source's expected contribution and
// variance into every patch background of the last-built Problem. The
// neighbor is described by its current variational solution.
func (b *Builder) AddNeighbor(c *model.Constrained) {
	for _, p := range b.pb.Patches {
		addNeighborToPatch(p, c, &b.ns)
	}
}
