package opt

import (
	"fmt"
	"math"
	"testing"

	"celeste/internal/linalg"
	"celeste/internal/rng"
)

// jacobiEigen returns the eigenvalues of the symmetric matrix a in ascending
// order and the matching eigenvectors as the columns of v, by cyclic Jacobi
// rotations: slow, short, and accurate to a few ulps of ‖a‖, which is all a
// test oracle needs.
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
	// Selection sort, columns of v alongside.
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

// oracleTRStep returns the exact minimizer of gᵀp + ½pᵀHp over ‖p‖ ≤ radius
// from H's eigendecomposition, with no spectrum floor: the interior Newton
// step when H is positive definite and the step fits, else the boundary step
// p(λ) = −Σ ĝⱼ/(wⱼ + λ) vⱼ with λ > −w₀ found by bisection, else (the hard
// case) the boundary step completed along the most negative eigenvector.
func oracleTRStep(h *linalg.Mat, g []float64, radius float64) []float64 {
	n := len(g)
	w, v := jacobiEigen(h)
	ghat := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			ghat[j] += v.At(i, j) * g[i]
		}
	}
	step := func(lam float64, skip func(j int) bool) []float64 {
		p := make([]float64, n)
		for j := 0; j < n; j++ {
			if skip(j) {
				continue
			}
			coef := -ghat[j] / (w[j] + lam)
			for i := 0; i < n; i++ {
				p[i] += coef * v.At(i, j)
			}
		}
		return p
	}
	none := func(int) bool { return false }
	if w[0] > 0 {
		if p := step(0, none); linalg.Norm2(p) <= radius {
			return p
		}
	}
	lo := math.Max(0, -w[0])
	scale := math.Max(math.Abs(w[0]), math.Abs(w[n-1]))
	if p := step(lo, func(j int) bool { return w[j]+lo <= 1e-12*scale }); lo > 0 && linalg.Norm2(p) < radius {
		// Hard case: no λ > −w₀ reaches the boundary.
		pn := linalg.Norm2(p)
		linalg.Axpy(math.Sqrt(radius*radius-pn*pn), colOf(v, 0), p)
		return p
	}
	hi := lo + linalg.Norm2(g)/radius + 1
	for linalg.Norm2(step(hi, none)) > radius {
		hi *= 2
	}
	for it := 0; it < 200; it++ {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			break
		}
		if linalg.Norm2(step(mid, none)) > radius {
			lo = mid
		} else {
			hi = mid
		}
	}
	return step(hi, none)
}

func colOf(v *linalg.Mat, j int) []float64 {
	c := make([]float64, v.Rows)
	for i := range c {
		c[i] = v.At(i, j)
	}
	return c
}

// TestJacobiEigenOracle pins the oracle itself: each pair satisfies
// Av = wv, the values ascend, and a known spectrum comes back.
func TestJacobiEigenOracle(t *testing.T) {
	r := rng.New(12)
	want := []float64{-3, -1e-6, 0, 2, 5e3, 1e10}
	a := mkSym(r, want)
	w, v := jacobiEigen(a)
	for j := range want {
		if math.Abs(w[j]-want[j]) > 1e-5 {
			t.Errorf("eigenvalue %d = %g, want %g", j, w[j], want[j])
		}
		col, av := colOf(v, j), make([]float64, len(want))
		a.MulVec(av, col)
		linalg.Axpy(-w[j], col, av)
		if linalg.Norm2(av) > 1e-5 {
			t.Errorf("eigenpair %d: residual %g", j, linalg.Norm2(av))
		}
	}
}

// Spectrum kinds of the subproblem property tests.
const (
	specDefinite = iota
	specIndefinite
	specFloored
	specHard
	numSpecKinds
)

// trCase draws a subproblem of the given spectrum kind: a symmetric H of
// order 2–27 in a random basis, a gradient and a radius.
func trCase(r *rng.Source, kind int) (*linalg.Mat, []float64, float64) {
	n := 2 + r.Intn(26)
	eig := make([]float64, n)
	for i := range eig {
		switch kind {
		case specDefinite:
			eig[i] = math.Pow(10, 4*r.Float64()-2)
		case specIndefinite, specHard:
			eig[i] = r.Normal() * math.Pow(10, 2*r.Float64()-1)
		case specFloored:
			// Position-like stiff curvature beside noise-level eigenvalues.
			eig[i] = math.Pow(10, 9+2*r.Float64())
			if i < 1+n/3 {
				eig[i] = r.Normal() * 1e-6
			}
		}
	}
	if kind == specHard {
		eig[0] = -1 - math.Abs(eig[0])
	}
	h := mkSym(r, eig)
	g := make([]float64, n)
	gScale := math.Pow(10, 2*r.Float64()-1)
	if kind == specFloored {
		gScale *= 1e3
	}
	for i := range g {
		g[i] = r.Normal() * gScale
	}
	radius := math.Pow(10, 3*r.Float64()-1.5)
	if kind == specHard {
		// g orthogonal to the most negative eigenvector, or all but
		// orthogonal (the near-hard case), and a radius the rest of the
		// spectrum cannot fill.
		_, v := jacobiEigen(h)
		v0 := colOf(v, 0)
		linalg.Axpy(-linalg.Dot(g, v0), v0, g)
		if r.Intn(2) == 0 {
			linalg.Axpy(linalg.Norm2(g)*math.Pow(10, -2-12*r.Float64()), v0, g)
		}
		radius = 10 * (1 + linalg.Norm2(g))
	}
	return h, g, radius
}

// checkTRStep holds one subproblem solve to the optimality conditions of
// the trust-region subproblem (Moré & Sorensen 1983): with
// λ = −(pᵀHp + gᵀp)/‖p‖², the multiplier the step implies, λ ≥ 0,
// (H + λI)p = −g, ‖p‖ ≤ radius, ‖p‖ = radius when λ is above the spectrum
// floor's shift, and H + (λ + ε)I positive definite; and its model value to
// the exact solution's from oracleTRStep, within the tolerance below.
func checkTRStep(t *testing.T, name string, h *linalg.Mat, g []float64, radius float64) {
	t.Helper()
	n := len(g)
	p, pred := solveTRSubproblem(NewWorkspace(n), h, g, radius)
	hNorm, _ := frobeniusMinDiag(h)
	pn, gn := linalg.Norm2(p), linalg.Norm2(g)
	if !(pn <= radius*(1+1e-9)) {
		t.Fatalf("%s: ‖p‖ = %g exceeds the radius %g", name, pn, radius)
	}
	if pn == 0 {
		return
	}
	hp := make([]float64, n)
	linalg.SymMulVec(h, hp, p)
	lam := -(linalg.Dot(p, hp) + linalg.Dot(g, p)) / (pn * pn)
	if lam < -1e-12*hNorm {
		t.Errorf("%s: λ = %g < 0", name, lam)
	}
	linalg.Axpy(lam, p, hp)
	linalg.Axpy(1, g, hp)
	if res := linalg.Norm2(hp); !(res <= 1e-8*(hNorm*pn+gn)) {
		t.Errorf("%s: ‖(H+λI)p + g‖ = %g with λ = %g", name, res, lam)
	}
	if floorShift := 2 * eigFloorRel * hNorm; lam > 2*floorShift+1e-9*hNorm && math.Abs(pn-radius) > 1e-9*radius {
		t.Errorf("%s: λ = %g > 0 but ‖p‖ = %g, radius %g", name, lam, pn, radius)
	}
	shifted := h.Clone()
	for i := 0; i < n; i++ {
		shifted.Add(i, i, lam+1e-12*hNorm)
	}
	if linalg.Cholesky(shifted, shifted) != nil {
		t.Errorf("%s: H + (λ+ε)I does not factor, λ = %g", name, lam)
	}
	// The solver resolves λ only to the floor shift, and a boundary step
	// whose λ is off by δ loses at most about δ·radius² of model decrease;
	// the tolerance allows twice that, plus 1e-9 relative.
	best := modelChange(h, g, oracleTRStep(h, g, radius))
	if tol := 1e-9*math.Abs(best) + 4*eigFloorRel*hNorm*radius*radius; !(pred <= best+tol) {
		t.Errorf("%s: model change %.12g, the exact solution's %.12g (tolerance %.3g)", name, pred, best, tol)
	}
}

// TestTRSubproblemOptimality checks the Cholesky-only solver against the
// optimality conditions and the eigendecomposition oracle on random
// definite, indefinite, floored and hard-case spectra.
func TestTRSubproblemOptimality(t *testing.T) {
	r := rng.New(45)
	for kind := 0; kind < numSpecKinds; kind++ {
		for trial := 0; trial < 100; trial++ {
			h, g, radius := trCase(r, kind)
			checkTRStep(t, fmt.Sprintf("kind %d trial %d (n %d, radius %.3g)", kind, trial, len(g), radius), h, g, radius)
		}
	}
}

// FuzzTRSubproblem holds subproblems drawn from a fuzzed seed and spectrum
// kind to the same conditions as TestTRSubproblemOptimality.
func FuzzTRSubproblem(f *testing.F) {
	for kind := uint8(0); kind < numSpecKinds; kind++ {
		f.Add(uint64(kind), kind)
	}
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8) {
		h, g, radius := trCase(rng.New(seed), int(kind%numSpecKinds))
		checkTRStep(t, fmt.Sprintf("seed %d kind %d", seed, kind%numSpecKinds), h, g, radius)
	})
}

// TestTRSubproblemNonFiniteHessian: a Hessian with a NaN or infinite entry
// (an overflowed evaluation far from the optimum) fails every factorization
// and gets the steepest-descent step to the boundary, which is finite.
func TestTRSubproblemNonFiniteHessian(t *testing.T) {
	g := []float64{1, -2, 0.5}
	radius := 0.5
	for _, c := range []struct {
		i, j int
		v    float64
	}{
		{1, 1, math.NaN()},
		{2, 0, math.NaN()},
		{2, 1, math.Inf(1)},
		{0, 0, math.Inf(-1)},
	} {
		h := linalg.NewMat(3, 3)
		for i := 0; i < 3; i++ {
			h.Set(i, i, float64(2+i))
		}
		h.Set(c.i, c.j, c.v)
		h.Set(c.j, c.i, c.v)
		p, _ := solveTRSubproblem(NewWorkspace(3), h, g, radius)
		gn := linalg.Norm2(g)
		for i := range p {
			if want := -g[i] / gn * radius; math.Abs(p[i]-want) > 1e-15 {
				t.Fatalf("H[%d][%d] = %v: p = %v, want the steepest-descent step to the boundary", c.i, c.j, c.v, p)
			}
		}
	}
}
