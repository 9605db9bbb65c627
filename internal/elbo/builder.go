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
// the background prefix sums), the frame-grouping scratch, and the
// neighbor-fold scratch — and retains all of it across builds, so the block
// coordinate ascent inner loop (thousands of Build/AddNeighbor/fit cycles per
// task) touches the heap only while patch shapes are still growing. A
// Builder serves one goroutine; the Problem returned by Build, patches
// included, is valid until the next Build on the same Builder. The zero
// value is ready to use.
type Builder struct {
	pb      Problem
	patches []*Patch
	tiles   []tile
	ns      neighborScratch
}

// tile is one frame's share of a source's window: the frame, the window
// clipped to it (in the frame's own pixel grid), the index of the first tile
// of the group it is stitched into, and the origin of its grid in that
// tile's grid.
type tile struct {
	im     *survey.Image
	rect   geom.PixRect
	lead   int
	dx, dy int
}

// stitchTolPx is how far, in pixels, two frames' origins may sit from a
// whole-pixel offset and still be stitched into one patch. Frames of one
// epoch that tile a common grid sit there up to the rounding of their
// reference coordinates (far below this); a dithered or independently
// registered frame misses it by a sizeable fraction of a pixel.
const stitchTolPx = 1e-6

// Build assembles the per-source optimization problem from survey images:
// every image whose footprint is within radiusPx of the source contributes
// the pixels of the active window (radiusPx around the source) that it
// holds, and those pixels become patches with sky background. The frames of
// one epoch and band that tile a common pixel grid, sharing calibration and
// PSF, are stitched into a single patch when together they hold a
// rectangular window exactly once (see groupTiles); every other frame is a
// patch of its own. Neighbor contributions are folded in afterwards with
// AddNeighbor.
func (b *Builder) Build(priors *model.Priors, images []*survey.Image, pos geom.Pt2, radiusPx float64) *Problem {
	pb := &b.pb
	// The anchor SD (1e-3 deg ≈ 9 px) is far looser than any detectable
	// source's posterior, so it only catches the fully-degenerate case.
	pb.Priors = priors
	pb.PosPenalty = 1 / (1e-3 * 1e-3)
	pb.PosAnchor = pos
	pb.PosBound = 0
	pb.PixScale = 0
	pb.Patches = pb.Patches[:0]
	b.tiles = b.tiles[:0]
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
		b.tiles = append(b.tiles, tile{im: im, rect: rect, lead: -1})
		// The patches cover radiusPx of sky around the anchor: bound the
		// fit's position domain to match (see Problem.PosBound).
		if scale := im.WCS.PixScale(); pb.PixScale == 0 || scale < pb.PixScale {
			pb.PixScale = scale
			pb.PosBound = radiusPx * scale
		}
	}
	b.groupTiles()
	for i := range b.tiles {
		if b.tiles[i].lead == i {
			pb.Patches = append(pb.Patches, b.stitch(i))
		}
	}
	return pb
}

// groupTiles assigns every tile to a group, in tile order: a tile not yet
// taken leads a group and takes each later free tile whose frame it can be
// stitched with (stitchOffset). A group is kept only if its windows are
// pairwise disjoint and their union is the rectangle bounding them; so
// overlapping frames and L-shaped unions fall back to one patch per frame,
// in the order a lone frame would have taken.
func (b *Builder) groupTiles() {
	ts := b.tiles
	for i := range ts {
		if ts[i].lead >= 0 {
			continue
		}
		ts[i].lead = i
		for j := i + 1; j < len(ts); j++ {
			if ts[j].lead >= 0 {
				continue
			}
			if dx, dy, ok := stitchOffset(ts[i].im, ts[j].im); ok {
				ts[j].lead, ts[j].dx, ts[j].dy = i, dx, dy
			}
		}
		if !b.tilesRect(i) {
			for j := i + 1; j < len(ts); j++ {
				if ts[j].lead == i {
					ts[j].lead, ts[j].dx, ts[j].dy = j, 0, 0
				}
			}
		}
	}
}

// stitchOffset reports whether frames a and b can share one patch — same
// epoch, band, calibration, PSF and pixel axes — and if so returns the origin
// of b's pixel grid in a's, which must be a whole-pixel offset to within
// stitchTolPx.
func stitchOffset(a, b *survey.Image) (dx, dy int, ok bool) {
	if a.Run != b.Run || a.Band != b.Band || a.Iota != b.Iota || a.Sky != b.Sky ||
		a.WCS.CD11 != b.WCS.CD11 || a.WCS.CD12 != b.WCS.CD12 ||
		a.WCS.CD21 != b.WCS.CD21 || a.WCS.CD22 != b.WCS.CD22 ||
		len(a.PSF) != len(b.PSF) {
		return 0, 0, false
	}
	for k := range a.PSF {
		if a.PSF[k] != b.PSF[k] {
			return 0, 0, false
		}
	}
	fx, fy := a.WCS.WorldToPix(b.WCS.PixToWorld(0, 0))
	rx, ry := math.Round(fx), math.Round(fy)
	if !(math.Abs(fx-rx) <= stitchTolPx && math.Abs(fy-ry) <= stitchTolPx) {
		return 0, 0, false
	}
	return int(rx), int(ry), true
}

// placed returns t's window in the grid of its group's lead tile.
func (t *tile) placed() geom.PixRect {
	return geom.PixRect{X0: t.rect.X0 + t.dx, Y0: t.rect.Y0 + t.dy, X1: t.rect.X1 + t.dx, Y1: t.rect.Y1 + t.dy}
}

// bounds returns the rectangle bounding the windows of lead's group, in the
// lead's grid, and the index of the group's top-left tile: the one whose
// window holds the bounding rectangle's first pixel (-1 if none does).
func (b *Builder) bounds(lead int) (box geom.PixRect, topLeft int) {
	box = b.tiles[lead].placed()
	for j := lead + 1; j < len(b.tiles); j++ {
		if b.tiles[j].lead == lead {
			r := b.tiles[j].placed()
			box.X0, box.Y0 = min(box.X0, r.X0), min(box.Y0, r.Y0)
			box.X1, box.Y1 = max(box.X1, r.X1), max(box.Y1, r.Y1)
		}
	}
	topLeft = -1
	for j := lead; j < len(b.tiles); j++ {
		if r := b.tiles[j].placed(); b.tiles[j].lead == lead && r.X0 == box.X0 && r.Y0 == box.Y0 {
			topLeft = j
		}
	}
	return box, topLeft
}

// tilesRect reports whether the windows of lead's group are pairwise
// disjoint and fill the rectangle bounding them.
func (b *Builder) tilesRect(lead int) bool {
	ts := b.tiles
	box, _ := b.bounds(lead)
	area := 0
	for i := lead; i < len(ts); i++ {
		if ts[i].lead != lead {
			continue
		}
		ri := ts[i].placed()
		area += ri.Width() * ri.Height()
		for j := i + 1; j < len(ts); j++ {
			if ts[j].lead != lead {
				continue
			}
			rj := ts[j].placed()
			if ri.X0 < rj.X1 && rj.X0 < ri.X1 && ri.Y0 < rj.Y1 && rj.Y0 < ri.Y1 {
				return false
			}
		}
	}
	return area == box.Width()*box.Height()
}

// stitch builds the patch of lead's group in the next pooled patch slot: its
// Rect and WCS are in the grid of the group's top-left tile, and Obs is
// gathered row segment by row segment from the tiles that own the pixels.
// A lone frame is a group of one tile.
func (b *Builder) stitch(lead int) *Patch {
	slot := len(b.pb.Patches)
	if slot == len(b.patches) {
		b.patches = append(b.patches, &Patch{})
	}
	p := b.patches[slot]
	box, topLeft := b.bounds(lead)
	ref := &b.tiles[topLeft]
	im := ref.im
	rect := geom.PixRect{X0: box.X0 - ref.dx, Y0: box.Y0 - ref.dy, X1: box.X1 - ref.dx, Y1: box.Y1 - ref.dy}
	w, n := rect.Width(), rect.Width()*rect.Height()
	p.Band, p.Rect, p.WCS, p.PSF, p.Iota = im.Band, rect, im.WCS, im.PSF, im.Iota
	p.Obs = sliceutil.Grow(p.Obs, n)
	p.Bg = sliceutil.Grow(p.Bg, n)
	p.VBg = sliceutil.Grow(p.VBg, n)
	p.bgPrefOK = false
	for k := 0; k < n; k++ {
		p.Bg[k] = im.Sky
		p.VBg[k] = 0
	}
	for j := lead; j < len(b.tiles); j++ {
		t := &b.tiles[j]
		if t.lead != lead {
			continue
		}
		ox, oy := t.dx-ref.dx-rect.X0, t.dy-ref.dy-rect.Y0 // tile grid → patch offsets
		for y := t.rect.Y0; y < t.rect.Y1; y++ {
			row := t.im.Pixels[y*t.im.W : (y+1)*t.im.W]
			k := (y+oy)*w + t.rect.X0 + ox
			copy(p.Obs[k:k+t.rect.Width()], row[t.rect.X0:t.rect.X1])
		}
	}
	return p
}

// AddNeighbor folds a fixed neighboring source's expected contribution and
// variance into every patch background of the last-built Problem. The
// neighbor is described by its current variational solution.
func (b *Builder) AddNeighbor(c *model.Constrained) {
	for _, p := range b.pb.Patches {
		addNeighborToPatch(p, c, &b.ns)
	}
}
