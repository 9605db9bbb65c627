package elbo

import (
	"math"
	"runtime"
	"testing"
	"time"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/rng"
)

// multiPatchProblem builds an n-patch problem for the fan-out tests: one
// rendered galaxy observed by n image patches cycling through the bands with
// varying calibrations. With mixedWCS the patches also vary in pixel scale
// and rectangle placement (exercising per-patch culling geometry); without
// it every patch shares one geometry, so any claim order sweeps identical
// row widths — the configuration the steady-state allocation test needs.
func multiPatchProblem(nPatches int, seed uint64, mixedWCS bool) (*Problem, *model.Params) {
	r := rng.New(seed)
	priors := model.DefaultPriors()

	basePix := 1.1e-4
	psfMix := mog.Mixture{
		{Weight: 0.75, MuX: 0.1, MuY: -0.1, Sxx: 1.5, Sxy: 0.2, Syy: 1.2},
		{Weight: 0.25, Sxx: 5, Sxy: -0.3, Syy: 4},
	}

	pos := geom.Pt2{RA: 8 * basePix, Dec: 8 * basePix}
	truth := model.CatalogEntry{
		ID: 0, Pos: pos, ProbGal: 1,
		Flux:       [model.NumBands]float64{2, 4, 6, 7, 8},
		GalDevFrac: 0.4, GalAxisRatio: 0.7, GalAngle: 0.8, GalScale: 2.5 * basePix,
	}

	pb := &Problem{Priors: &priors, PosPenalty: 1 / (2e-4 * 2e-4), PosAnchor: pos}
	for k := 0; k < nPatches; k++ {
		band := k % model.NumBands
		iota := 80 + 7*float64(k)
		sky := 60 + 5*float64(k%4)
		pixScale := basePix
		rect := geom.PixRect{X0: 3, Y0: 3, X1: 13, Y1: 13}
		if mixedWCS {
			pixScale = basePix * (1 + 0.2*float64(k%3))
			rect = geom.PixRect{X0: 2 + k%3, Y0: 2 + k%2, X1: 12 + k%3, Y1: 12 + k%2}
		}
		wcs := geom.NewSimpleWCS(0, 0, pixScale)
		n := rect.Width() * rect.Height()
		p := &Patch{
			Band: band, Rect: rect, WCS: wcs, PSF: psfMix, Iota: iota,
			Obs: make([]float64, n), Bg: make([]float64, n), VBg: make([]float64, n),
		}
		buf := make([]float64, 16*16)
		for i := range buf {
			buf[i] = sky
		}
		model.AddExpectedCounts(buf, 16, 16, wcs, psfMix, &truth, band, iota, 6)
		i := 0
		for y := rect.Y0; y < rect.Y1; y++ {
			for x := rect.X0; x < rect.X1; x++ {
				p.Obs[i] = float64(r.Poisson(buf[y*16+x]))
				p.Bg[i] = sky
				p.VBg[i] = 0.5 * sky
				i++
			}
		}
		pb.Patches = append(pb.Patches, p)
	}

	theta := model.InitialParams(&truth)
	pr := rng.New(seed + 1)
	for i := range theta {
		scale := 0.05
		if i < 2 {
			scale = 0.3 * basePix
		}
		theta[i] += pr.Normal() * scale
	}
	return pb, &theta
}

// tierBits captures one evaluation of all three tiers as raw float bits, so
// comparisons are bitwise (== would conflate -0 with +0 and reject equal
// NaNs; the identity we guarantee is stronger than numeric equality).
type tierBits struct {
	fullValue uint64
	fullGrad  [model.ParamDim]uint64
	fullHess  []uint64
	gradValue uint64
	gradGrad  [model.ParamDim]uint64
	valValue  uint64
	visits    [3]int64
}

func captureTiers(pb *Problem, theta *model.Params, s *Scratch) tierBits {
	var b tierBits
	r := pb.EvalInto(theta, s)
	b.fullValue = math.Float64bits(r.Value)
	for i, g := range r.Grad {
		b.fullGrad[i] = math.Float64bits(g)
	}
	b.fullHess = make([]uint64, len(r.Hess.Data))
	for i, h := range r.Hess.Data {
		b.fullHess[i] = math.Float64bits(h)
	}
	b.visits[0] = r.Visits

	g := pb.EvalGradInto(theta, s)
	b.gradValue = math.Float64bits(g.Value)
	for i, gv := range g.Grad {
		b.gradGrad[i] = math.Float64bits(gv)
	}
	b.visits[1] = g.Visits

	v, vis := pb.EvalValueWith(theta, s)
	b.valValue = math.Float64bits(v)
	b.visits[2] = vis
	return b
}

func compareTiers(t *testing.T, label string, want, got tierBits) {
	t.Helper()
	if want.visits != got.visits {
		t.Errorf("%s: visits differ: %v vs %v", label, want.visits, got.visits)
	}
	if want.fullValue != got.fullValue {
		t.Errorf("%s: full-tier value bits differ", label)
	}
	if want.gradValue != got.gradValue {
		t.Errorf("%s: grad-tier value bits differ", label)
	}
	if want.valValue != got.valValue {
		t.Errorf("%s: value-tier value bits differ", label)
	}
	for i := range want.fullGrad {
		if want.fullGrad[i] != got.fullGrad[i] {
			t.Fatalf("%s: full-tier grad[%d] bits differ", label, i)
		}
		if want.gradGrad[i] != got.gradGrad[i] {
			t.Fatalf("%s: grad-tier grad[%d] bits differ", label, i)
		}
	}
	for i := range want.fullHess {
		if want.fullHess[i] != got.fullHess[i] {
			t.Fatalf("%s: hessian[%d] bits differ", label, i)
		}
	}
}

// TestParallelEvalBitwiseIdentity is the tentpole guarantee: for every
// evaluation tier, every patch count, and every worker count, the parallel
// evaluation is bitwise identical to the serial one — same value bits, same
// gradient bits, same Hessian bits, same visit counts. Repeated evaluations
// with a warm parallel scratch must also be self-identical (the claim order
// varies run to run; the result must not).
func TestParallelEvalBitwiseIdentity(t *testing.T) {
	for _, np := range []int{1, 2, 7, 16} {
		pb, theta := multiPatchProblem(np, 40+uint64(np), true)
		serial := NewScratch()
		want := captureTiers(pb, theta, serial)

		for _, workers := range []int{1, 2, 8} {
			s := NewScratch()
			s.SetWorkers(workers)
			if got := len(s.states); got != workers {
				t.Fatalf("SetWorkers(%d): %d worker states", workers, got)
			}
			for rep := 0; rep < 3; rep++ {
				got := captureTiers(pb, theta, s)
				compareTiers(t, labelFor(np, workers, rep), want, got)
			}
		}
	}
}

func labelFor(np, workers, rep int) string {
	return "patches=" + itoa(np) + " workers=" + itoa(workers) + " rep=" + itoa(rep)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestSetWorkersReconfigure exercises worker-count churn on one scratch:
// growing, shrinking, and clamping must keep results bitwise stable and
// return pooled lane slabs rather than leak them.
func TestSetWorkersReconfigure(t *testing.T) {
	pb, theta := multiPatchProblem(7, 53, true)
	serial := NewScratch()
	want := captureTiers(pb, theta, serial)

	s := NewScratch()
	for _, workers := range []int{4, 1, 8, 2, 64, 3} {
		s.SetWorkers(workers)
		compareTiers(t, "reconfigure workers="+itoa(workers), want, captureTiers(pb, theta, s))
	}
	s.SetWorkers(0)
	if len(s.states) != 1 {
		t.Errorf("SetWorkers(0) should clamp to 1, got %d", len(s.states))
	}
	s.SetWorkers(maxPatchWorkers + 10)
	if len(s.states) != maxPatchWorkers {
		t.Errorf("SetWorkers(big) should clamp to %d, got %d", maxPatchWorkers, len(s.states))
	}
}

// TestParallelEvalZeroAllocSteadyState extends the zero-allocation guarantee
// to multi-patch evaluation, serial and fanned out: on a warm scratch none of
// the three tiers may allocate — no per-evaluation goroutines, closures, or
// partial buffers. The 8-worker row is what lets core hand every fit
// PatchThreads workers without touching the allocation budgets. 15 patches
// over 8 workers is the shape of a three-epoch, five-band source.
func TestParallelEvalZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pb, theta := multiPatchProblem(15, 91, false)
	for _, workers := range []int{1, 8} {
		t.Run("workers="+itoa(workers), func(t *testing.T) {
			s := NewScratch()
			s.SetWorkers(workers)
			for i := 0; i < 3; i++ { // warm every worker's lanes and buffers
				pb.EvalInto(theta, s)
				pb.EvalGradInto(theta, s)
				pb.EvalValueWith(theta, s)
			}
			// Flush pending crew-shutdown cleanups from scratches earlier
			// tests abandoned: runtime.AddCleanup work runs asynchronously
			// after a collection and would otherwise be attributed to
			// whichever AllocsPerRun window it lands in.
			runtime.GC()
			runtime.GC()
			time.Sleep(50 * time.Millisecond)
			runtime.GC()
			for _, tier := range []struct {
				name string
				eval func()
			}{
				{"EvalInto", func() { pb.EvalInto(theta, s) }},
				{"EvalGradInto", func() { pb.EvalGradInto(theta, s) }},
				{"EvalValueWith", func() { pb.EvalValueWith(theta, s) }},
			} {
				if allocs := steadyAllocsPerRun(tier.eval); allocs != 0 {
					t.Errorf("%s allocates %v objects per run in steady state, want 0", tier.name, allocs)
				}
			}
		})
	}
}

// steadyAllocsPerRun is testing.AllocsPerRun over the first clean window of
// up to 16. Crew members claim patches racily and size their lanes on the
// first patch they win, so no fixed number of warm-up passes warms them all:
// on a 2-core box a member can win its first patch many passes in, inside
// the measured window (one test process in twelve read 3 allocs/op so).
// Every window before the first clean one is therefore warm-up. Each member
// warms once, so 16 windows cannot all be dirtied by warm-up, while a real
// per-pass allocation dirties every one of them and is still reported.
func steadyAllocsPerRun(eval func()) float64 {
	allocs := testing.AllocsPerRun(10, eval)
	for w := 1; w < 16 && allocs > 0; w++ {
		allocs = testing.AllocsPerRun(10, eval)
	}
	return allocs
}

// FuzzParallelEvalVsSerial shakes the bitwise-identity guarantee across
// randomized parameter perturbations, patch counts, and worker counts; CI
// runs it in the fuzz-smoke job beyond the seeded corpus.
func FuzzParallelEvalVsSerial(f *testing.F) {
	f.Add(uint8(2), uint8(2), int16(0), int16(0), int16(0))
	f.Add(uint8(7), uint8(8), int16(120), int16(-60), int16(31))
	f.Add(uint8(16), uint8(3), int16(-500), int16(999), int16(-2))
	f.Add(uint8(1), uint8(5), int16(77), int16(77), int16(77))

	f.Fuzz(func(t *testing.T, npRaw, workersRaw uint8, d0, d1, d2 int16) {
		np := 1 + int(npRaw)%9
		workers := 2 + int(workersRaw)%7
		pb, theta := multiPatchProblem(np, 77, true)
		// Perturb a position coordinate (sub-pixel), a shape coordinate, and
		// a brightness coordinate from the fuzzed deltas.
		theta[model.ParamRA] += float64(d0) / 32767 * 0.5 * 1.1e-4
		theta[model.ParamGalLogScale] += float64(d1) / 32767 * 0.3
		theta[model.ParamR1] += float64(d2) / 32767 * 0.5

		serial := NewScratch()
		want := captureTiers(pb, theta, serial)
		par := NewScratch()
		par.SetWorkers(workers)
		compareTiers(t, labelFor(np, workers, 0), want, captureTiers(pb, theta, par))
	})
}
