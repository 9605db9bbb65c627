package vi

import (
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/model"
	"celeste/internal/opt"
)

// TestDecrementStop binds FitWith's Newton-decrement stop on the package's
// star and galaxy fixtures. The same Scratch drives opt.NewtonTRWS twice with
// FitWith's settings: once under the gradient-only rule (DecrementTol 0) and
// once as a reference polished far past both stops (300 iterations, gradient
// tolerance 1e-9). FitWith must stop on the decrement in fewer iterations than
// the gradient-only rule, with an ELBO within 2·decrementTol of the reference
// and a distance from it, in the reference's exact-Hessian norm, of at most
// 2·√(2·decrementTol): the decrement's own bound, with a factor of two for
// the quadratic model's error.
//
// The distance is checked twice. Once over the subspace the decrement
// measures: the displacement's component along the eigenvectors of the
// Hessian at the stop that the subproblem solver resolves (eigenvalue at
// least specFloorRel of the largest magnitude); below that floor the solver
// treats curvature as zero, so no decrement bounds motion there. And once in
// full, under the same bound, which the ELBO bound alone would otherwise
// cover below the floor. In every row the full distance equals the resolved
// one (0.002–0.020 against the bound 0.089).
// EXPERIMENTS.md "One Newton path" and "Profiled responsibilities" have every
// row.
func TestDecrementStop(t *testing.T) {
	for _, tc := range []struct {
		name   string
		truth  model.CatalogEntry
		seed   uint64
		epochs int
	}{
		{"star/101x2", starTruth(), 101, 2},
		{"star/303x1", starTruth(), 303, 1},
		{"star/404x1", starTruth(), 404, 1},
		{"galaxy/202x3", galTruth(), 202, 3},
		{"galaxy/606x1", galTruth(), 606, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.epochs > 1 {
				t.Skip("multi-epoch fixtures run at full size")
			}
			pb, init := makeScene(t, tc.seed, tc.truth, tc.epochs)
			s := NewScratch()
			var o Options
			o.defaults()

			// run drives the optimizer on s the way FitWith does, under tro.
			run := func(tro opt.TROptions) (model.Params, opt.Result) {
				s.pb = pb
				defer func() { s.pb = nil }()
				res := opt.NewtonTRWS(s, init[:], s.ws, tro)
				var x model.Params
				copy(x[:], res.X)
				return x, res
			}
			gradOnly := trOptions(o)
			gradOnly.DecrementTol = 0
			_, parent := run(gradOnly)
			ref := gradOnly
			ref.MaxIter, ref.GradTol = 300, 1e-9
			xRef, reference := run(ref)

			fit := FitWith(pb, init, Options{}, s)
			t.Logf("FitWith %d iterations (%s); gradient-only rule %d (%s); reference %d (%s)",
				fit.Iters, fit.Status, parent.Iters, parent.Status, reference.Iters, reference.Status)
			if fit.Status != opt.StopDecrement || !fit.Converged {
				t.Errorf("FitWith stopped with %q (converged %v), want the decrement stop", fit.Status, fit.Converged)
			}
			if fit.Iters >= parent.Iters {
				t.Errorf("FitWith took %d iterations, the gradient-only rule %d", fit.Iters, parent.Iters)
			}

			gap := -reference.F - fit.ELBO
			if !(math.Abs(gap) <= 2*decrementTol) {
				t.Errorf("FitWith's ELBO is %.3g nats from the reference, want within %g", gap, 2*decrementTol)
			}
			// d projected onto the resolved eigenvectors of the negated ELBO's
			// Hessian at the stop, then √(dᵀH d), H its Hessian at the reference.
			s.pb = pb
			n := model.ParamDim
			g, hFit, h := make([]float64, n), linalg.NewMat(n, n), linalg.NewMat(n, n)
			s.Full(fit.Params[:], g, hFit)
			w, v := jacobiEigen(hFit)
			s.Full(xRef[:], g, h)
			s.pb = nil
			var d, dRes [model.ParamDim]float64
			for i := range d {
				d[i] = fit.Params[i] - xRef[i]
			}
			floor := specFloorRel * math.Max(math.Abs(w[0]), math.Abs(w[n-1]))
			for j := 0; j < n; j++ {
				if w[j] < floor {
					continue
				}
				var c float64
				for i := 0; i < n; i++ {
					c += v.At(i, j) * d[i]
				}
				for i := 0; i < n; i++ {
					dRes[i] += c * v.At(i, j)
				}
			}
			bound := 2 * math.Sqrt(2*decrementTol)
			dist := math.Sqrt(linalg.QuadForm(h, dRes[:]))
			if !(dist <= bound) {
				t.Errorf("FitWith is %.3g from the reference in its Hessian norm over the resolved subspace, want ≤ %.3g", dist, bound)
			}
			full := math.Sqrt(linalg.QuadForm(h, d[:]))
			if !(full <= bound) {
				t.Errorf("FitWith is %.3g from the reference in its full Hessian norm, want ≤ %.3g", full, bound)
			}
			t.Logf("ELBO %.2e nats below the reference, %.3f from it in its Hessian norm over the resolved subspace (%.3f in full)",
				gap, dist, full)
		})
	}
}

// specFloorRel is the subproblem solver's relative spectrum floor (opt's
// eigFloorRel): curvature below it times the largest eigenvalue magnitude
// cannot be told from zero.
const specFloorRel = 1e-15

// jacobiEigen returns the eigenvalues of the symmetric matrix a in ascending
// order and the matching eigenvectors as the columns of v, by cyclic Jacobi
// rotations: slow, short and accurate, the test's oracle for the resolved
// subspace.
func jacobiEigen(a *linalg.Mat) ([]float64, *linalg.Mat) {
	n := a.Rows
	m := a.Clone()
	v := linalg.NewMat(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	for sweep := 0; sweep < 100; sweep++ {
		var off, all float64
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				all += m.At(i, j) * m.At(i, j)
				if i != j {
					off += m.At(i, j) * m.At(i, j)
				}
			}
		}
		if off <= 1e-32*all {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				if m.At(p, q) == 0 {
					continue
				}
				// The rotation that zeroes m[p][q] (Golub & Van Loan 8.5.2).
				theta := (m.At(q, q) - m.At(p, p)) / (2 * m.At(p, q))
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m.At(k, p), m.At(k, q)
					m.Set(k, p, c*mkp-s*mkq)
					m.Set(k, q, s*mkp+c*mkq)
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, c*mpk-s*mqk)
					m.Set(q, k, s*mpk+c*mqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = m.At(i, i)
	}
	for i := 0; i < n; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if w[j] < w[k] {
				k = j
			}
		}
		w[i], w[k] = w[k], w[i]
		for r := 0; r < n; r++ {
			vi, vk := v.At(r, i), v.At(r, k)
			v.Set(r, i, vk)
			v.Set(r, k, vi)
		}
	}
	return w, v
}
