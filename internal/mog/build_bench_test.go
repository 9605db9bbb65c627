package mog_test

import (
	"math"
	"testing"

	"celeste/internal/galprof"
	"celeste/internal/mog"
	"celeste/internal/psf"
)

// benchBuild times one galaxy component build over the production radial
// profiles and a three-component PSF at SDSS pixel scale: the per-(patch,
// evaluation) set-up cost of the full (Build) and gradient (BuildGrad) tiers.
func benchBuild(b *testing.B, build func(e *mog.Evaluator, p mog.Mixture, exp, dev []mog.ProfComp, jac mog.Jac2)) {
	p := psf.Default(1.2)
	exp, dev := galprof.Exponential(), galprof.DeVaucouleurs()
	jac := mog.Jac2{A11: 1 / 1.1e-4, A22: 1 / 1.1e-4}
	var e mog.Evaluator
	build(&e, p, exp, dev, jac)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(&e, p, exp, dev, jac)
	}
}

func BenchmarkBuild(b *testing.B) {
	benchBuild(b, func(e *mog.Evaluator, p mog.Mixture, exp, dev []mog.ProfComp, jac mog.Jac2) {
		e.Build(p, exp, dev, 0.3, 0.4, 0.8, math.Log(2.5e-4), jac)
	})
}

func BenchmarkBuildGrad(b *testing.B) {
	benchBuild(b, func(e *mog.Evaluator, p mog.Mixture, exp, dev []mog.ProfComp, jac mog.Jac2) {
		e.BuildGrad(p, exp, dev, 0.3, 0.4, 0.8, math.Log(2.5e-4), jac)
	})
}
