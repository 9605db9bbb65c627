package elbo

import (
	"math"
	"testing"

	"celeste/internal/model"
	"celeste/internal/rng"
)

// TestEvalIntoMatchesScalarReference is the objective-level differential
// property test: over random problems and random parameter perturbations,
// the row-sweep kernel path (culling, SoA lanes, moment-folded blocks) must
// match the retained scalar reference path within 1e-10 relative — value,
// gradient, and Hessian. Visits may differ (the kernel does not visit culled
// pixels); everything else must agree.
func TestEvalIntoMatchesScalarReference(t *testing.T) {
	r := rng.New(4242)
	for trial := 0; trial < 20; trial++ {
		pb, theta := testPatchProblem(100 + uint64(trial))
		th := *theta
		// Occasionally push the source toward a patch corner so culling
		// clips asymmetric strips.
		if trial%3 == 1 {
			th[model.ParamRA] += 6 * 1.1e-4 * r.Normal()
			th[model.ParamDec] += 6 * 1.1e-4 * r.Normal()
		}
		// Occasionally shrink the galaxy so the bounding radius bites.
		if trial%3 == 2 {
			th[model.ParamGalLogScale] -= 1 + r.Float64()
		}

		sNew := NewScratch()
		got := pb.EvalInto(&th, sNew)

		sRef := NewScratch()
		want := pb.evalIntoRef(&th, sRef)

		if math.Abs(got.Value-want.Value) > 1e-10*(1+math.Abs(want.Value)) {
			t.Errorf("trial %d: value %.15g, ref %.15g", trial, got.Value, want.Value)
		}
		var gnorm float64
		for i := range want.Grad {
			gnorm = math.Max(gnorm, math.Abs(want.Grad[i]))
		}
		for i := range want.Grad {
			if math.Abs(got.Grad[i]-want.Grad[i]) > 1e-10*(math.Abs(want.Grad[i])+1e-3*gnorm+1) {
				t.Errorf("trial %d: grad[%d] = %.15g, ref %.15g", trial, i, got.Grad[i], want.Grad[i])
			}
		}
		var hnorm float64
		for _, v := range want.Hess.Data {
			hnorm = math.Max(hnorm, math.Abs(v))
		}
		for k, v := range want.Hess.Data {
			if math.Abs(got.Hess.Data[k]-v) > 1e-10*(math.Abs(v)+1e-3*hnorm+1) {
				t.Errorf("trial %d: hess[%d] = %.15g, ref %.15g", trial, k, got.Hess.Data[k], v)
			}
		}

		// Value path: same comparison, and its visits must match the
		// derivative path's exactly (shared culling geometry).
		gotV, gotVisits := pb.EvalValueWith(&th, sNew)
		wantV, _ := pb.evalValueRef(&th, sRef)
		if math.Abs(gotV-wantV) > 1e-10*(1+math.Abs(wantV)) {
			t.Errorf("trial %d: value-only %.15g, ref %.15g", trial, gotV, wantV)
		}
		if gotVisits != got.Visits {
			t.Errorf("trial %d: value path visits %d, derivative path %d", trial, gotVisits, got.Visits)
		}
	}
}

// TestAddNeighborMatchesScalarReference pins the kernel-based neighbor fold
// against the retained scalar fold: backgrounds may differ only by the
// qCutoff truncation the kernel applies (~1e-11 of the density peak) and
// recurrence drift.
func TestAddNeighborMatchesScalarReference(t *testing.T) {
	for _, d := range []float64{2, 6, 11} {
		pbNew, _ := testPatchProblem(55)
		pbRef, _ := testPatchProblem(55)
		nb := model.CatalogEntry{
			Pos:        pbNew.PosAnchor,
			Flux:       [model.NumBands]float64{30, 30, 30, 30, 30},
			ProbGal:    0.5,
			GalDevFrac: 0.3, GalAxisRatio: 0.5, GalAngle: 0.4, GalScale: 2 * 1.1e-4,
		}
		nb.Pos.RA += d * 1.1e-4
		np := model.InitialParams(&nb)
		nc := np.Constrained()

		addNeighbor(pbNew, &nc)
		for _, p := range pbRef.Patches {
			addNeighborRef(p, &nc)
		}

		for pi := range pbNew.Patches {
			pn, pr := pbNew.Patches[pi], pbRef.Patches[pi]
			var peak float64
			for k := range pr.Bg {
				if v := pr.Bg[k]; v > peak {
					peak = v
				}
			}
			for k := range pn.Bg {
				if diff := math.Abs(pn.Bg[k] - pr.Bg[k]); diff > 1e-9*peak {
					t.Errorf("d=%v patch %d px %d: bg %v vs ref %v", d, pi, k, pn.Bg[k], pr.Bg[k])
				}
				if diff := math.Abs(pn.VBg[k] - pr.VBg[k]); diff > 1e-9*(1+pr.VBg[k])*peak {
					t.Errorf("d=%v patch %d px %d: vbg %v vs ref %v", d, pi, k, pn.VBg[k], pr.VBg[k])
				}
			}
		}
	}
}
