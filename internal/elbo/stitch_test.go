package elbo

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/psf"
	"celeste/internal/rng"
	"celeste/internal/survey"
)

const stitchPix = 1.1e-4 // pixel scale of the tiling fixtures, deg/px

// tiledSky renders one galaxy at pixel (sx, sy) of an (nx·w) × (ny·h) sky in
// each of bands bands, and cuts it into an nx × ny grid of w × h frames per
// band in survey order (tile-major, bands inner). The frames of a tile
// column share their reference RA, accumulated one frame width at a time as
// the survey generator does; whole holds each band's sky as a single frame
// with the grid's first tile's WCS.
func tiledSky(seed uint64, nx, ny, w, h, bands int, sx, sy float64) (tiles, whole []*survey.Image, truth model.CatalogEntry) {
	r := rng.New(seed)
	W, H := nx*w, ny*h
	ra0, dec0 := 0.01+1e-3*r.Float64(), -0.02+1e-3*r.Float64()
	wcs := geom.NewSimpleWCS(ra0, dec0, stitchPix)
	truth = model.CatalogEntry{
		Pos: wcs.PixToWorld(sx, sy), ProbGal: 1,
		Flux:       [model.NumBands]float64{6, 9, 12, 14, 15},
		GalDevFrac: 0.35, GalAxisRatio: 0.65, GalAngle: 0.7, GalScale: 1.8 * stitchPix,
	}
	for b := 0; b < bands; b++ {
		im := &survey.Image{
			Band: b, W: W, H: H, WCS: wcs, PSF: psf.Default(1.1 + 0.1*float64(b)),
			Iota: 90 + 5*float64(b), Sky: 70 + 3*float64(b), Pixels: make([]float64, W*H),
		}
		for i := range im.Pixels {
			im.Pixels[i] = im.Sky
		}
		model.AddExpectedCounts(im.Pixels, W, H, wcs, im.PSF, &truth, b, im.Iota, 6)
		for i, lam := range im.Pixels {
			im.Pixels[i] = float64(r.Poisson(lam))
		}
		whole = append(whole, im)
	}
	dec := dec0
	for ty := 0; ty < ny; ty++ {
		ra := ra0
		for tx := 0; tx < nx; tx++ {
			for _, src := range whole {
				im := *src
				im.Field, im.W, im.H = ty*nx+tx, w, h
				im.WCS = geom.NewSimpleWCS(ra, dec, stitchPix)
				im.Pixels = make([]float64, w*h)
				for y := 0; y < h; y++ {
					copy(im.Pixels[y*w:(y+1)*w], src.Pixels[(ty*h+y)*W+tx*w:])
				}
				tiles = append(tiles, &im)
			}
			ra += float64(w) * stitchPix
		}
		dec += float64(h) * stitchPix
	}
	return tiles, whole, truth
}

// perFrame is the problem built with one patch per frame: each frame's patch
// comes from a Build over that frame alone, in frame order, and the rest of
// the problem is like's.
func perFrame(like *Problem, images []*survey.Image, radiusPx float64) *Problem {
	pb := *like
	pb.Patches = nil
	for _, im := range images {
		one := new(Builder).Build(like.Priors, []*survey.Image{im}, like.PosAnchor, radiusPx)
		pb.Patches = append(pb.Patches, one.Patches...)
	}
	return &pb
}

// samePatches reports the first difference between two patch lists, field by
// field and bit for bit, or "" if there is none.
func samePatches(got, want []*Patch) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d patches, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case g.Band != w.Band || g.Rect != w.Rect || g.WCS != w.WCS || g.Iota != w.Iota:
			return fmt.Sprintf("patch %d: band %d rect %+v wcs %+v iota %v, want %d %+v %+v %v",
				i, g.Band, g.Rect, g.WCS, g.Iota, w.Band, w.Rect, w.WCS, w.Iota)
		case !slices.Equal(g.PSF, w.PSF):
			return fmt.Sprintf("patch %d: PSF differs", i)
		case !slices.Equal(g.Obs, w.Obs) || !slices.Equal(g.Bg, w.Bg) || !slices.Equal(g.VBg, w.VBg):
			return fmt.Sprintf("patch %d: pixels differ", i)
		}
	}
	return ""
}

// closeResults reports the first entry where two full evaluations differ by
// more than tol relative — the value against its own size, a gradient or
// Hessian entry against the largest entry of its kind — or a visit count
// that differs at all; "" if none does.
func closeResults(got, want *Result, tol float64) string {
	if got.Visits != want.Visits {
		return fmt.Sprintf("visits %d, want %d", got.Visits, want.Visits)
	}
	if math.Abs(got.Value-want.Value) > tol*math.Abs(want.Value) {
		return fmt.Sprintf("value %.17g, want %.17g", got.Value, want.Value)
	}
	var gs, hs float64
	for _, v := range want.Grad {
		gs = math.Max(gs, math.Abs(v))
	}
	for _, v := range want.Hess.Data {
		hs = math.Max(hs, math.Abs(v))
	}
	for i, v := range want.Grad {
		if math.Abs(got.Grad[i]-v) > tol*gs {
			return fmt.Sprintf("grad[%d] %.17g, want %.17g", i, got.Grad[i], v)
		}
	}
	for i, v := range want.Hess.Data {
		if math.Abs(got.Hess.Data[i]-v) > tol*hs {
			return fmt.Sprintf("hess[%d] %.17g, want %.17g", i, got.Hess.Data[i], v)
		}
	}
	return ""
}

// stitchTheta is the fixtures' evaluation point: truth's initialization,
// moved off it so the derivatives are generic.
func stitchTheta(truth *model.CatalogEntry, seed uint64) model.Params {
	th := model.InitialParams(truth)
	r := rng.New(seed)
	for i := range th {
		scale := 0.05
		if i < 2 {
			scale = 0.4 * stitchPix
		}
		th[i] += r.Normal() * scale
	}
	return th
}

// TestStitchedTilingMatchesOneFrame: a source at the corner where four
// frames of a 2×2 tiling meet gets one patch per band, holding the pixels,
// grid and WCS that a single frame covering the four would give it, so the
// two problems evaluate alike (here bit for bit; the bound is 1e-12) after
// the same neighbor fold.
func TestStitchedTilingMatchesOneFrame(t *testing.T) {
	const radius = 9
	tiles, whole, truth := tiledSky(5, 2, 2, 20, 20, model.NumBands, 20.3, 19.6)
	// The last tile first: a group's patch lives in its top-left tile's grid,
	// whichever frame comes first.
	tiles = append(tiles[3*model.NumBands:], tiles[:3*model.NumBands]...)
	priors := model.DefaultPriors()
	neighbor := truth
	neighbor.Pos.RA += 6 * stitchPix
	nb := model.InitialParams(&neighbor)
	nc := nb.Constrained()

	var sb, wb Builder
	st := sb.Build(&priors, tiles, truth.Pos, radius)
	sb.AddNeighbor(&nc)
	one := wb.Build(&priors, whole, truth.Pos, radius)
	wb.AddNeighbor(&nc)
	if len(st.Patches) != model.NumBands {
		t.Fatalf("%d patches from %d frames, want one per band (%d)", len(st.Patches), len(tiles), model.NumBands)
	}
	if d := samePatches(st.Patches, one.Patches); d != "" {
		t.Fatalf("stitched patches differ from the one-frame ones: %s", d)
	}
	if st.PosBound != one.PosBound {
		t.Fatalf("PosBound %v, one frame %v", st.PosBound, one.PosBound)
	}

	th := stitchTheta(&truth, 6)
	got := st.EvalInto(&th, NewScratch())
	want := one.EvalInto(&th, NewScratch())
	if d := closeResults(got, want, 1e-12); d != "" {
		t.Fatal(d)
	}
}

// TestStitchFallbacks: frames that cannot share a grid, or whose windows do
// not tile a rectangle exactly once, keep one patch per frame — the patches
// a Build over each frame alone makes, in frame order.
func TestStitchFallbacks(t *testing.T) {
	const radius = 7
	priors := model.DefaultPriors()
	// tile 0 1
	//      2 3, the source near the corner all four meet at.
	build := func(edit func(ts []*survey.Image) []*survey.Image) (*Problem, []*survey.Image) {
		tiles, _, truth := tiledSky(9, 2, 2, 16, 16, 1, 16.4, 15.7)
		tiles = edit(tiles)
		return new(Builder).Build(&priors, tiles, truth.Pos, radius), tiles
	}
	if pb, _ := build(func(ts []*survey.Image) []*survey.Image { return ts }); len(pb.Patches) != 1 {
		t.Fatalf("unedited 2×2 tiling: %d patches, want 1", len(pb.Patches))
	}
	for _, tc := range []struct {
		name string
		edit func(ts []*survey.Image) []*survey.Image
	}{
		{"overlapping frames", func(ts []*survey.Image) []*survey.Image {
			ts[1].WCS.RA0 -= 4 * stitchPix
			return ts
		}},
		// Tile 1 slides 4 px over tile 0 and tile 3 4 px away from tile 2:
		// the windows' areas add up to the rectangle bounding them, the
		// overlap making up for the gap.
		{"overlap beside an equal gap", func(ts []*survey.Image) []*survey.Image {
			ts[1].WCS.RA0 -= 4 * stitchPix
			ts[3].WCS.RA0 += 4 * stitchPix
			return ts
		}},
		{"PSF mismatch", func(ts []*survey.Image) []*survey.Image {
			ts[3].PSF = psf.Default(1.3)
			return ts
		}},
		{"Iota mismatch", func(ts []*survey.Image) []*survey.Image {
			ts[1].Iota *= 1.01
			return ts
		}},
		{"Sky mismatch", func(ts []*survey.Image) []*survey.Image {
			ts[2].Sky++
			return ts
		}},
		{"CD mismatch", func(ts []*survey.Image) []*survey.Image {
			ts[1].WCS.CD22 *= 1 + 1e-9
			return ts
		}},
		// Rounded to a whole pixel, this offset would tile the window.
		{"half-pixel origin offset", func(ts []*survey.Image) []*survey.Image {
			ts[1].WCS.RA0 -= 0.5 * stitchPix
			return ts
		}},
		{"three tiles of four", func(ts []*survey.Image) []*survey.Image {
			return ts[:3]
		}},
	} {
		pb, tiles := build(tc.edit)
		if d := samePatches(pb.Patches, perFrame(pb, tiles, radius).Patches); d != "" {
			t.Errorf("%s: %s", tc.name, d)
		}
		if len(pb.Patches) != len(tiles) {
			t.Errorf("%s: %d patches from %d frames", tc.name, len(pb.Patches), len(tiles))
		}
	}
}

// FuzzStitchedPatches draws tile grids, tile sizes, sky origins, source
// positions and window radii, sometimes with one tile missing, and checks
// the stitched problem against the one-patch-per-frame problem: the same
// pixels, one patch per band where the tiles are all present, equal visits,
// and value, gradient and Hessian equal up to the order of summation.
func FuzzStitchedPatches(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(2), uint8(20), uint8(20), uint16(20000), uint16(20000), uint8(9), uint8(0))
	f.Add(uint64(2), uint8(3), uint8(1), uint8(12), uint8(30), uint16(65535), uint16(100), uint8(14), uint8(0))
	f.Add(uint64(3), uint8(1), uint8(3), uint8(7), uint8(9), uint16(1), uint16(50000), uint8(3), uint8(5))
	f.Add(uint64(4), uint8(3), uint8(3), uint8(10), uint8(10), uint16(33000), uint16(32000), uint8(12), uint8(4))
	f.Fuzz(func(t *testing.T, seed uint64, nxRaw, nyRaw, wRaw, hRaw uint8, fx, fy uint16, rRaw, drop uint8) {
		nx, ny := 1+int(nxRaw)%3, 1+int(nyRaw)%3
		w, h := 6+int(wRaw)%27, 6+int(hRaw)%27
		// The source anywhere over the grid, up to two pixels past its edge.
		sx := -2 + float64(fx)/65535*float64(nx*w+4)
		sy := -2 + float64(fy)/65535*float64(ny*h+4)
		radius := 3 + float64(rRaw%12)
		const bands = 2
		tiles, _, truth := tiledSky(seed, nx, ny, w, h, bands, sx, sy)
		// drop > 0 removes one tile (all its bands).
		k := int(drop) % (nx*ny + 1)
		if k > 0 {
			tiles = slices.Delete(tiles, (k-1)*bands, k*bands)
		}
		priors := model.DefaultPriors()
		st := new(Builder).Build(&priors, tiles, truth.Pos, radius)
		ref := perFrame(st, tiles, radius)
		if len(ref.Patches) == 0 {
			return
		}
		var stPx, refPx int
		for _, p := range st.Patches {
			stPx += len(p.Obs)
		}
		for _, p := range ref.Patches {
			refPx += len(p.Obs)
		}
		if stPx != refPx {
			t.Fatalf("stitched patches hold %d pixels, per-frame %d", stPx, refPx)
		}
		if k == 0 && len(st.Patches) != bands {
			t.Fatalf("full %d×%d grid: %d patches, want %d", nx, ny, len(st.Patches), bands)
		}
		th := stitchTheta(&truth, seed+1)
		got := st.EvalInto(&th, NewScratch())
		want := ref.EvalInto(&th, NewScratch())
		if d := closeResults(got, want, 1e-10); d != "" {
			t.Fatalf("%d×%d grid of %d×%d, source (%.3f, %.3f), radius %v, drop %d: %s",
				nx, ny, w, h, sx, sy, radius, drop, d)
		}
	})
}
