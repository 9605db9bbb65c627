package celeste

import (
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
)

// TestGoldenInferRecoversTruth is the end-to-end regression gate for the hot
// path: a full celeste.Infer run on a tiny fixed-seed synthetic survey must
// recover the truth catalog within stated tolerances. Any refactor of the
// ELBO evaluation, the Newton trust region, or the Cyclades sweep that
// silently changes results trips these bounds long before a Table II style
// comparison would.
func TestGoldenInferRecoversTruth(t *testing.T) {
	cfg := DefaultSurveyConfig(77)
	cfg.Region = geom.NewBox(0, 0, 0.012, 0.012)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 112, 112
	cfg.SourceDensity = 30000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(10), math.Log(12)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := GenerateSurvey(cfg)
	if len(sv.Truth) < 3 {
		t.Fatalf("fixed-seed survey drew %d sources; the golden scene needs >= 3", len(sv.Truth))
	}

	init := sv.NoisyCatalog(78)
	res := Infer(sv, init, InferConfig{Threads: 4, Rounds: 2, MaxIter: 30})
	if len(res.Catalog) != len(sv.Truth) {
		t.Fatalf("catalog has %d entries, truth %d", len(res.Catalog), len(sv.Truth))
	}

	pixScale := sv.Config.PixScale
	var posSum, fluxSum float64
	for i := range sv.Truth {
		tr := &sv.Truth[i]
		e := &res.Catalog[i]

		posErr := geom.Dist(tr.Pos, e.Pos) / pixScale
		posSum += posErr
		// Centroid accuracy scales with signal and compactness: faint
		// sources sit near the photon-noise floor and extended galaxies
		// have intrinsically soft centroids, so the bound widens with the
		// half-light radius and for sub-threshold fluxes.
		posTol := 1.0 + tr.GalScale/pixScale
		if tr.Flux[model.RefBand] < 8 {
			posTol += 2
		}
		if posErr > posTol {
			t.Errorf("source %d (flux %.1f, scale %.5f): position error %.3f px exceeds %.1f px",
				i, tr.Flux[model.RefBand], tr.GalScale, posErr, posTol)
		}

		if tr.Flux[model.RefBand] > 0 && e.Flux[model.RefBand] > 0 {
			fluxErr := math.Abs(math.Log(e.Flux[model.RefBand] / tr.Flux[model.RefBand]))
			fluxSum += fluxErr
			if fluxErr > 0.45 {
				t.Errorf("source %d: |log flux ratio| = %.3f exceeds 0.45 (flux %v vs truth %v)",
					i, fluxErr, e.Flux[model.RefBand], tr.Flux[model.RefBand])
			}
		}
	}
	n := float64(len(sv.Truth))
	if mean := posSum / n; mean > 1.0 {
		t.Errorf("mean position error %.3f px exceeds 1 px", mean)
	}
	if mean := fluxSum / n; mean > 0.2 {
		t.Errorf("mean |log flux ratio| %.3f exceeds 0.2", mean)
	}

	// The fit must improve on its noisy initialization — a refactor that
	// makes Infer a no-op would otherwise still pass loose absolute bounds.
	var initPos float64
	for i := range sv.Truth {
		initPos += geom.Dist(sv.Truth[i].Pos, init[i].Pos) / pixScale
	}
	if posSum >= initPos {
		t.Errorf("inference did not improve positions: %.3f px total vs init %.3f px",
			posSum, initPos)
	}
}

// TestWarmStartCatalogDelta is the documented catalog-delta report for the
// cross-sweep warm starts: the same fixed-seed survey is inferred once with
// warm starts (the default: early sweeps stop at a loosened tolerance and
// re-fits start from the previous sweep's trust radius) and once on the
// cold-sweep reference path. Unlike the row-sweep kernel (which changes
// arithmetic by ~1e-12), warm starts change the optimization *trajectory*,
// so the bounds are wider than the kernel-vs-oracle ones (internal/elbo's
// TestMomentKernelCatalogDelta) but still far inside the golden test's
// accuracy tolerances (1 px position, 0.2 mean |log flux|): both paths end
// the final sweep on the same two stops — the gradient tolerance, or a
// Newton decrement below 1e-3 nats — on the same objective. The measured
// deltas are recorded in EXPERIMENTS.md.
func TestWarmStartCatalogDelta(t *testing.T) {
	cfg := DefaultSurveyConfig(77)
	cfg.Region = geom.NewBox(0, 0, 0.01, 0.01)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 96, 96
	cfg.SourceDensity = 30000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(10), math.Log(12)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := GenerateSurvey(cfg)
	if len(sv.Truth) < 2 {
		t.Skip("fixed-seed survey drew too few sources")
	}
	init := sv.NoisyCatalog(78)
	icfg := InferConfig{Threads: 4, Rounds: 2, MaxIter: 30}

	warm := Infer(sv, init, icfg)
	ccfg := icfg
	ccfg.ColdSweeps = true
	cold := Infer(sv, init, ccfg)

	pixScale := sv.Config.PixScale
	var maxPos, maxFlux float64
	for i := range cold.Catalog {
		r, k := &cold.Catalog[i], &warm.Catalog[i]
		if d := geom.Dist(r.Pos, k.Pos) / pixScale; d > maxPos {
			maxPos = d
		}
		if r.Flux[model.RefBand] > 0 && k.Flux[model.RefBand] > 0 {
			if d := math.Abs(math.Log(k.Flux[model.RefBand] / r.Flux[model.RefBand])); d > maxFlux {
				maxFlux = d
			}
		}
	}
	t.Logf("warm-vs-cold catalog delta over %d sources: max position shift %.2e px, max |log flux ratio| %.2e; Newton iters %d (warm) vs %d (cold)",
		len(cold.Catalog), maxPos, maxFlux, warm.NewtonIters, cold.NewtonIters)
	if maxPos > 0.2 {
		t.Errorf("warm starts shift a position by %.4f px vs the cold-sweep reference (> 0.2)", maxPos)
	}
	if maxFlux > 0.05 {
		t.Errorf("warm starts shift a flux by |log ratio| %.5f vs the cold-sweep reference (> 0.05)", maxFlux)
	}
}
