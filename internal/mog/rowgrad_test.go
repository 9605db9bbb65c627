package mog

import (
	"testing"

	"celeste/internal/dual"
	"celeste/internal/rng"
)

// TestSweepRowGradMatchesSweepRow is the differential property test for the
// gradient tier's kernel: over random evaluators, row geometries, and source
// offsets, the value and gradient lanes of SweepRowGrad must match SweepRow's
// to 1e-12 relative (the two paths compute identical expressions; the
// tolerance only absorbs compiler-level reassociation).
func TestSweepRowGradMatchesSweepRow(t *testing.T) {
	r := rng.New(4321)
	var full, grad RowLanes
	for trial := 0; trial < 200; trial++ {
		e := randomEvaluator(r)
		w := 1 + r.Intn(80)
		srcX := 20 * r.Normal()
		x0 := -w/2 - r.Intn(10)
		dxs := make([]float64, w)
		for i := range dxs {
			dxs[i] = float64(x0+i) - srcX
		}
		dy := 15 * r.Normal()

		full.Resize(w)
		e.SweepRow(&full, dxs, dy)
		grad.Resize(w)
		e.ResetRows()
		e.SweepRowGrad(&grad, dxs, dy)

		for i := 0; i < w; i++ {
			scaleS := full.StarV[i]
			if !relClose(grad.StarV[i], full.StarV[i], scaleS, 1e-12) {
				t.Fatalf("trial %d px %d: StarV = %g, full %g", trial, i, grad.StarV[i], full.StarV[i])
			}
			for k := 0; k < 2; k++ {
				if !relClose(grad.StarGLane(k)[i], full.StarGLane(k)[i], scaleS, 1e-12) {
					t.Fatalf("trial %d px %d: StarG[%d] = %g, full %g",
						trial, i, k, grad.StarGLane(k)[i], full.StarGLane(k)[i])
				}
			}
			scaleG := full.GalV[i]
			if !relClose(grad.GalV[i], full.GalV[i], scaleG, 1e-12) {
				t.Fatalf("trial %d px %d: GalV = %g, full %g", trial, i, grad.GalV[i], full.GalV[i])
			}
			for k := 0; k < dual.N; k++ {
				if !relClose(grad.GalGLane(k)[i], full.GalGLane(k)[i], scaleG, 1e-12) {
					t.Fatalf("trial %d px %d: GalG[%d] = %g, full %g",
						trial, i, k, grad.GalGLane(k)[i], full.GalGLane(k)[i])
				}
			}
		}
	}
}
