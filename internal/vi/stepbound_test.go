package vi

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
)

// posStepBound is, per start offset in pixels, the most Newton iterations
// and refused trials the ten fits of TestPositionStepBound (two fluxes, five
// draws each) may take: the counts measured when the per-step position
// bound landed (EXPERIMENTS.md "Position step bound"). Without the bound the
// same fits took 81/1, 347/85, 347/75 and 334/75.
var posStepBound = map[float64]struct{ iters, rejected int }{
	0.5: {81, 1},
	1.5: {89, 4},
	2.5: {99, 4},
	3.5: {109, 4},
}

// posErrBoundPx bounds every fit's final distance from the true position in
// TestPositionStepBound, in pixels.
const posErrBoundPx = 0.1

// TestPositionStepBound fits an isolated star at r-band flux 8.8 and 35.2,
// five noise draws each, from starts 0.5, 1.5, 2.5 and 3.5 px off in RA with
// ProbGal 0.05 and 0.6 of the true flux, and bounds per offset the summed
// Newton iterations and refused trials. A start a few pixels off is where a
// fit's first steps propose multi-pixel moves; with the trust radius alone
// to stop them, each refusal quarters the radius until it binds the degree-
// scale position, and the fit then walks the radius back up for the O(1)
// coordinates.
func TestPositionStepBound(t *testing.T) {
	priors := model.DefaultPriors()
	pos := geom.Pt2{RA: 0.0022, Dec: 0.0022}
	offsets := [...]float64{0.5, 1.5, 2.5, 3.5}
	s := NewScratch()
	var iters, rejected [len(offsets)]int
	var worst [len(offsets)]float64
	for fi, scale := range [...]float64{1, 4} {
		var truth model.CatalogEntry
		truth.Pos = pos
		for b, f := range [model.NumBands]float64{4.0, 6.4, 8.8, 10.4, 11.2} {
			truth.Flux[b] = scale * f
		}
		radius := 4 + 1.6*math.Log1p(truth.Flux[model.RefBand])
		for d := uint64(0); d < 5; d++ {
			pb := new(elbo.Builder).Build(&priors, renderIsolated(500+10*uint64(fi)+d, &truth), pos, radius)
			for k, off := range offsets {
				init := truth
				init.Pos.RA += off * pixScale
				init.ProbGal = 0.05
				for b := range init.Flux {
					init.Flux[b] *= 0.6
				}
				res := FitWith(pb, model.InitialParams(&init), Options{MaxIter: 60}, s)
				c := res.Params.Constrained()
				errPx := math.Hypot(c.Pos.RA-pos.RA, c.Pos.Dec-pos.Dec) / pixScale
				iters[k] += res.Iters
				rejected[k] += res.Rejected
				worst[k] = math.Max(worst[k], errPx)
				t.Logf("r %.1f draw %d offset %.1f px: %d iterations, %d refused, error %.4f px (%s)",
					truth.Flux[model.RefBand], d, off, res.Iters, res.Rejected, errPx, res.Status)
			}
		}
	}
	for k, off := range offsets {
		bound := posStepBound[off]
		name := fmt.Sprintf("offset %.1f px", off)
		t.Logf("%s: %d iterations (bound %d), %d refused (bound %d), worst error %.4f px",
			name, iters[k], bound.iters, rejected[k], bound.rejected, worst[k])
		if iters[k] > bound.iters || rejected[k] > bound.rejected {
			t.Errorf("%s: %d iterations and %d refused trials over ten fits, want at most %d and %d",
				name, iters[k], rejected[k], bound.iters, bound.rejected)
		}
		if !(worst[k] <= posErrBoundPx) {
			t.Errorf("%s: a fit ended %.4f px from the true position, want at most %g", name, worst[k], posErrBoundPx)
		}
	}
}

// FuzzBoundStep: for any step and pixel scale, BoundStep leaves a position
// move of at most maxPosStepPx pixels, in the step's own direction, and
// every other coordinate bit for bit; a step whose position move is already
// within the bound, or not finite, it leaves untouched.
func FuzzBoundStep(f *testing.F) {
	f.Add(3e-4, -1e-4, 0.7, 1.1e-4)
	f.Add(5e-5, 5e-5, -2.0, 1.1e-4)
	f.Add(1.1e-4, 0.0, 0.0, 1.1e-4)
	f.Add(-1e-310, 2e-4, 3.0, 1.1e-4)
	f.Add(1e300, -1e300, 1.0, 1e-300)
	f.Add(1e-3, 1e-3, 1.0, 5e-324)
	f.Add(40.001, 61.001, 1.0, 2.2e-322) // maxLen/n underflows
	f.Add(1.0, 1.0, 1.0, 0.0)
	f.Add(math.Inf(1), 0.0, 1.0, 1.1e-4)
	f.Fuzz(func(t *testing.T, ra, dec, other, scale float64) {
		var p model.Params
		for i := range p {
			p[i] = other * float64(i)
		}
		p[model.ParamRA], p[model.ParamDec] = ra, dec
		before := p
		s := &Scratch{pb: &elbo.Problem{PixScale: scale}}
		moved := s.BoundStep(make([]float64, model.ParamDim), p[:])
		for i := range p {
			if i != model.ParamRA && i != model.ParamDec && math.Float64bits(p[i]) != math.Float64bits(before[i]) {
				t.Fatalf("coordinate %d went %g → %g", i, before[i], p[i])
			}
		}
		maxLen := maxPosStepPx * scale
		n := math.Hypot(ra, dec)
		if !moved {
			if p != before {
				t.Fatalf("step (%g, %g) at scale %g changed without being reported", ra, dec, scale)
			}
			if maxLen > 0 && n > maxLen && !math.IsInf(n, 0) {
				t.Fatalf("step (%g, %g) of %g px at scale %g was left unbounded", ra, dec, n/scale, scale)
			}
			return
		}
		if !(maxLen > 0 && n > maxLen) {
			t.Fatalf("step (%g, %g) of %g px at scale %g was shortened", ra, dec, n/scale, scale)
		}
		ra2, dec2 := p[model.ParamRA], p[model.ParamDec]
		n2 := math.Hypot(ra2, dec2)
		if !(n2 <= maxLen*(1+1e-15)+1e-322) {
			t.Fatalf("step (%g, %g) at scale %g bounded to (%g, %g), %g px", ra, dec, scale, ra2, dec2, n2/scale)
		}
		if math.Signbit(ra2) != math.Signbit(ra) || math.Signbit(dec2) != math.Signbit(dec) {
			t.Fatalf("step (%g, %g) bounded to (%g, %g): a sign flipped", ra, dec, ra2, dec2)
		}
		if n2 >= 0x1p-1000 {
			if d := math.Hypot(ra2/n2-ra/n, dec2/n2-dec/n); !(d <= 1e-15) {
				t.Fatalf("step (%g, %g) bounded to (%g, %g) turned by %g", ra, dec, ra2, dec2, d)
			}
		}
	})
}
