// Package opt implements the numerical optimizers Celeste uses to fit one
// light source's parameter block: a Newton trust-region method for nonconvex
// minimization (the paper's choice, Section IV-D), and L-BFGS (the paper's
// explicitly rejected alternative, kept for the ablation benchmarks that
// reproduce the "tens of iterations vs up to 2000" comparison).
//
// All optimizers MINIMIZE; callers maximizing an ELBO pass its negation.
package opt

import (
	"math"

	"celeste/internal/linalg"
)

// Objective is what NewtonTRWS minimizes. Full returns the value at x and
// writes the gradient into g and the Hessian into h, both sized for x and
// owned by the optimizer's Workspace. Every trial point is judged by Full, so
// an accepted trial needs no second evaluation. A point outside the
// objective's domain must return +Inf; g and h may then hold anything, since
// the optimizer rejects the step and never reads them.
type Objective interface {
	Full(x, g []float64, h *linalg.Mat) float64
}

// Workspace holds every buffer a NewtonTRWS run needs: the iterate and trial
// point, two gradient/Hessian pairs (the iterate's and the trial's, swapped
// when a trial is accepted), the subproblem step, and the
// Cholesky/eigendecomposition storage. Reusing one Workspace across fits
// makes the optimizer's own linear algebra allocation-free; a workspace
// serves one optimization at a time.
type Workspace struct {
	n             int
	x, trial, p   []float64
	g, gTrial     []float64
	h, hTrial     *linalg.Mat
	ghat          []float64
	chol          *linalg.Mat
	eigVecs       *linalg.Mat
	eigVals, eigE []float64

	// Cached factorization state for the iterate's Hessian. Radius
	// backtracking solves several trust-region subproblems against one
	// factored H, so the Cholesky factor, the eigendecomposition and
	// ghat = Vᵀg are computed at most once per accepted point; a rejected
	// trial writes only the trial pair and leaves them valid. The
	// three-valued states distinguish "not yet tried" from a cached success
	// or failure.
	cholState, eigState facState

	// factorizations counts the Cholesky and eigendecomposition attempts
	// since the last ensure.
	factorizations int

	// interior records whether the last solveTRSubproblem step is the
	// model's minimizer strictly inside the trust region, not a step the
	// radius clipped; only such a step's predicted decrease measures how far
	// the model's optimum is (TROptions.DecrementTol).
	interior bool
}

// facState is a cached factorization outcome.
type facState uint8

const (
	facUnknown facState = iota // not attempted for the current Hessian
	facOK                      // factorization cached in the workspace
	facFailed                  // factorization failed; do not retry
)

// noteHessianChanged invalidates every cached factorization; the optimizer
// calls it when a trial is accepted.
func (w *Workspace) noteHessianChanged() {
	w.cholState = facUnknown
	w.eigState = facUnknown
}

// NewWorkspace returns a Workspace for n-dimensional problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the workspace for dimension n, reallocating only on change.
func (w *Workspace) ensure(n int) {
	w.noteHessianChanged()
	w.factorizations = 0
	if w.n == n {
		return
	}
	w.n = n
	w.x = make([]float64, n)
	w.trial = make([]float64, n)
	w.p = make([]float64, n)
	w.g = make([]float64, n)
	w.gTrial = make([]float64, n)
	w.h = linalg.NewMat(n, n)
	w.hTrial = linalg.NewMat(n, n)
	w.ghat = make([]float64, n)
	w.chol = linalg.NewMat(n, n)
	w.eigVecs = linalg.NewMat(n, n)
	w.eigVals = make([]float64, n)
	w.eigE = make([]float64, n)
}

// StopReason says why an optimization run ended. The zero value means the
// run did not start and prints as the empty string.
type StopReason uint8

const (
	StopGradTol       StopReason = iota + 1 // gradient infinity norm below GradTol
	StopDecrement                           // Newton decrement below DecrementTol
	StopCollapsed                           // trust radius shrank below minRadius
	StopIterLimit                           // MaxIter iterations done
	StopLineSearch                          // L-BFGS backtracking found no decrease
	StopOutsideDomain                       // the start lies outside the objective's domain
)

var stopText = [...]string{
	StopGradTol:       "gradient tolerance reached",
	StopDecrement:     "Newton decrement below tolerance",
	StopCollapsed:     "trust region collapsed",
	StopIterLimit:     "iteration limit",
	StopLineSearch:    "line search failed",
	StopOutsideDomain: "initial position outside the problem's domain",
}

func (r StopReason) String() string { return stopText[r] }

// Result reports an optimization run.
type Result struct {
	X         []float64
	F         float64
	Iters     int // outer iterations
	FullEvals int // value+gradient+Hessian evaluations (NewtonTRWS)
	GradEvals int // value+gradient evaluations (L-BFGS)
	Rejected  int // trial points the trust-region ratio test refused
	GradNorm  float64
	Radius    float64 // final trust radius (warm-start hint for refits)
	Converged bool
	Status    StopReason
}

// TROptions configures NewtonTRWS.
type TROptions struct {
	MaxIter    int     // maximum outer iterations (default 100)
	GradTol    float64 // terminate when ||g||_inf < GradTol (default 1e-8)
	InitRadius float64 // initial trust radius (default 1)
	MaxRadius  float64 // radius cap (default 1e3)

	// DecrementTol, when positive, is a second stopping test, free of the
	// gradient's units: when the trust-region step is interior, a predicted
	// decrease −(gᵀp + ½pᵀHp) below DecrementTol ends the run as converged,
	// without evaluating the trial point. For an interior Newton step that
	// decrease is ½λ², λ the Newton decrement, so the iterate lies within
	// √(2·DecrementTol) of the quadratic model's optimum in the exact
	// Hessian's metric, in every coordinate at once — which an infinity norm
	// over degree-scale positions and O(1) logits cannot say. The bound
	// covers the directions the solver resolves; curvature below its
	// spectrum floor (eigFloorRel) counts as zero. A step the radius clipped
	// never stops a run. On a tail the model underestimates — the last
	// accepted interior step gained more than it predicted (ρ > 1) — the
	// test reads the remaining gain extrapolated along the decrements' own
	// geometric decay instead (see remainingGain). 0 disables the test.
	DecrementTol float64
}

func (o *TROptions) defaults() {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.GradTol == 0 {
		o.GradTol = 1e-8
	}
	if o.InitRadius == 0 {
		o.InitRadius = 1
	}
	if o.MaxRadius == 0 {
		o.MaxRadius = 1e3
	}
}

// minRadius is the trust-radius floor: a run whose radius shrinks below it
// ends as collapsed.
const minRadius = 1e-12

// NewtonTRWS minimizes obj from x0 with a trust-region Newton method. The
// trust-region subproblem is solved exactly via the symmetric
// eigendecomposition of the Hessian (with Cholesky fast paths), which handles
// indefinite Hessians — the reason the paper pairs Newton's method with a
// trust region on its nonconvex objective. Each iteration costs at most one
// Full evaluation, at the trial point, into the workspace's trial pair: an
// accepted trial swaps that pair in as the iterate's, so every subproblem is
// solved against the exact Hessian at the current iterate; a rejected trial
// leaves the iterate's gradient, Hessian and cached factorization as they
// were, and the next subproblem re-solves against them at a smaller radius.
// It runs entirely inside ws: the iterate, trial point, derivatives, step,
// and factorization storage all live in the workspace, so with an objective
// that allocates nothing a whole optimization allocates nothing. Result.X
// aliases workspace storage and is valid until the next NewtonTRWS call with
// the same workspace.
func NewtonTRWS(obj Objective, x0 []float64, ws *Workspace, opts TROptions) Result {
	opts.defaults()
	n := len(x0)
	ws.ensure(n)
	x := ws.x
	copy(x, x0)
	res := Result{X: x}

	radius := opts.InitRadius
	f := obj.Full(x, ws.g, ws.h)
	res.FullEvals++
	res.F = f

	// The predicted decrease and trust-region ratio of the last accepted
	// interior step (both 0 until there is one), for the decrement test.
	var dPrev, rhoPrev float64

	trial := ws.trial
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		res.Radius = radius
		gnorm := infNorm(ws.g)
		res.GradNorm = gnorm
		if gnorm < opts.GradTol {
			res.Converged = true
			res.Status = StopGradTol
			return res
		}

		p, predicted := solveTRSubproblem(ws, ws.h, ws.g, radius)
		interior := ws.interior
		if opts.DecrementTol > 0 && interior && remainingGain(-predicted, dPrev, rhoPrev) < opts.DecrementTol {
			res.Converged = true
			res.Status = StopDecrement
			return res
		}
		if predicted >= 0 {
			// No descent possible within the model; shrink and retry.
			radius *= 0.25
			if radius < minRadius {
				res.Status = StopCollapsed
				res.Converged = gnorm < 1e-4
				res.Radius = radius
				return res
			}
			continue
		}
		for i := range trial {
			trial[i] = x[i] + p[i]
		}
		ft := obj.Full(trial, ws.gTrial, ws.hTrial)
		res.FullEvals++
		actual := ft - f
		rho := actual / predicted // both negative for progress

		// NaN-robust radius update: a non-finite trial value (overflowed
		// exponentials far from the optimum) must shrink the region, so the
		// conditions are phrased to treat NaN like failure.
		if rho > 0.75 && linalg.Norm2(p) > 0.8*radius {
			radius = math.Min(2*radius, opts.MaxRadius)
		} else if !(rho >= 0.25) {
			radius *= 0.25
		}
		if rho > 1e-4 && actual < 0 && !math.IsNaN(ft) {
			if interior {
				dPrev, rhoPrev = -predicted, rho
			}
			copy(x, trial)
			ws.g, ws.gTrial = ws.gTrial, ws.g
			ws.h, ws.hTrial = ws.hTrial, ws.h
			ws.noteHessianChanged()
			f = ft
			res.F = f
		} else {
			res.Rejected++
		}
		if radius < minRadius {
			res.Status = StopCollapsed
			res.GradNorm = infNorm(ws.g)
			res.Converged = res.GradNorm < 1e-4
			res.Radius = radius
			return res
		}
	}
	res.Status = StopIterLimit
	res.GradNorm = infNorm(ws.g)
	res.Radius = radius
	return res
}

// remainingGain estimates the decrease still available from an iterate
// whose interior step predicts decrease d, given the predicted decrease
// dPrev and ratio rhoPrev of the last accepted interior step. Normally that
// is d itself. On an exponential tail (a saturating logit's e^a) the
// quadratic model underestimates every step (ρ > 1) and the decrements shrink
// by a steady factor r = d/dPrev, so the remaining gain is the geometric sum
// d·ρ/(1 − r); with r ≥ 1 the decrements are not shrinking and nothing is
// inferred, so the run goes on.
func remainingGain(d, dPrev, rhoPrev float64) float64 {
	if !(rhoPrev > 1) {
		return d
	}
	if d >= dPrev {
		return math.Inf(1)
	}
	return d * rhoPrev / (1 - d/dPrev)
}

// solveTRSubproblem returns the minimizer p of gᵀp + ½ pᵀHp subject to
// ||p|| <= radius, and the predicted change in objective (negative for
// descent). Fast path: if H is positive definite (checked by Cholesky) and
// the Newton step is interior, return it. Otherwise solve the secular
// equation using the eigendecomposition (Moré–Sorensen). The returned step
// aliases ws.p; all factorization storage comes from ws.
//
// Both factorizations are cached in the workspace across calls until
// noteHessianChanged: radius backtracking re-solves against the same H and g,
// paying only the O(n²) backsolve. Whether the step is interior is left in
// ws.interior.
func solveTRSubproblem(ws *Workspace, h *linalg.Mat, g []float64, radius float64) ([]float64, float64) {
	n := len(g)
	p := ws.p
	ws.interior = false

	// Cholesky fast path.
	if ws.cholState == facUnknown {
		ws.factorizations++
		if err := linalg.Cholesky(ws.chol, h); err == nil {
			ws.cholState = facOK
		} else {
			ws.cholState = facFailed
		}
	}
	if ws.cholState == facOK {
		linalg.SolveCholesky(ws.chol, p, g)
		for i := range p {
			p[i] = -p[i]
		}
		if linalg.Norm2(p) <= radius {
			ws.interior = true
			return p, modelChange(h, g, p)
		}
	}

	// Eigendecomposition path.
	w, v, ghat := ws.eigVals, ws.eigVecs, ws.ghat
	if ws.eigState == facUnknown {
		ws.factorizations++
		if err := linalg.EigenSymInto(h, w, v, ws.eigE); err == nil {
			ws.eigState = facOK
			// ghat = Vᵀ g.
			for j := 0; j < n; j++ {
				var s float64
				for i := 0; i < n; i++ {
					s += v.At(i, j) * g[i]
				}
				ghat[j] = s
			}
		} else {
			ws.eigState = facFailed
		}
	}
	if ws.eigState == facFailed {
		// Numerical disaster: fall back to steepest descent to the boundary.
		return steepestToBoundary(p, h, g, radius)
	}
	lmin := w[0]

	// Relative spectrum floor: eigenvalues within eigFloorRel of the largest
	// magnitude are indistinguishable from zero (the eigensolver's backward
	// error is ~machine epsilon times ‖H‖). Without it, noise-negative
	// eigenvalues make a numerically PSD Hessian look indefinite, and an
	// indefinite model's trust-region minimizer always rides the boundary —
	// the optimizer then pads every Newton step with junk components along
	// noise directions and converges by radius oscillation instead of
	// quadratically. ELBO Hessians hit this constantly: the position
	// coordinates contribute curvature ~1e11 (deg⁻²) while collapsed
	// directions contribute ~0.
	scale := math.Max(math.Abs(w[0]), math.Abs(w[n-1]))
	if scale == 0 {
		// Zero Hessian: linear model, steepest descent to the boundary.
		return steepestToBoundary(p, h, g, radius)
	}
	eigFloor := eigFloorRel * scale
	if lmin >= -eigFloor {
		// Numerically positive semidefinite. Split the spectrum at the
		// floor: directions the eigensolver resolves (w >= eigFloor) take
		// the exact Newton step; the floored subspace — true curvature
		// anywhere below the solver's resolution, including the ELBO's
		// KL-anchored near-null directions — takes a gradient step filling
		// the remaining radius, the generalization of the Moré–Sorensen
		// hard-case boundary fill. The fill length is then governed by the
		// trust-region ratio tests: flat directions grow it geometrically
		// with the radius instead of crawling at the floored Newton length,
		// while the Newton component stays exact and interior.
		for i := range p {
			p[i] = 0
		}
		var gfn2 float64 // squared norm of the floored-subspace gradient
		for j := 0; j < n; j++ {
			if w[j] < eigFloor {
				gfn2 += ghat[j] * ghat[j]
				continue
			}
			coef := -ghat[j] / w[j]
			for i := 0; i < n; i++ {
				p[i] += coef * v.At(i, j)
			}
		}
		nn := linalg.Norm2(p)
		if nn <= radius {
			ws.interior = true
			if gfn := math.Sqrt(gfn2); gfn > 0 {
				// Curvature for the fill: the eigensolver's noise floor
				// (eps·‖H‖ — the smallest curvature it could have resolved),
				// raised just enough to keep the fill inside the remaining
				// radius budget. Directions flatter than the noise floor
				// cannot be told from exactly flat, and the trust-region
				// ratio test governs the resulting step like any other.
				budget := math.Sqrt(radius*radius - nn*nn)
				dFill := math.Max(machEps*scale, gfn/budget)
				// A fill sized by the budget ends on the boundary.
				ws.interior = dFill > gfn/budget
				for j := 0; j < n; j++ {
					if w[j] >= eigFloor {
						continue
					}
					coef := -ghat[j] / dFill
					for i := 0; i < n; i++ {
						p[i] += coef * v.At(i, j)
					}
				}
			}
			return p, modelChange(h, g, p)
		}
		// Newton part alone is exterior: fall through to the boundary solve.
	}

	pnorm := func(lambda float64) float64 {
		var ss float64
		for j := 0; j < n; j++ {
			d := w[j] + lambda
			ss += ghat[j] * ghat[j] / (d * d)
		}
		return math.Sqrt(ss)
	}

	// Determine lambda >= max(0, -lmin) such that ||p(lambda)|| = radius.
	lamLo := math.Max(0, -lmin)
	lam := lamLo + 1e-12*(1+math.Abs(lmin))

	// Hard case: g has (numerically) no component along the most negative
	// eigenvector(s) and the boundary cannot be reached by shrinking.
	if pnorm(lam) < radius && lamLo > 0 {
		// p = -(H + lamLo I)^+ g + tau * v_min reaching the boundary.
		for i := range p {
			p[i] = 0
		}
		for j := 0; j < n; j++ {
			d := w[j] + lamLo
			if math.Abs(d) < 1e-10*(1+math.Abs(lmin)) {
				continue
			}
			coef := -ghat[j] / d
			for i := 0; i < n; i++ {
				p[i] += coef * v.At(i, j)
			}
		}
		base := linalg.Norm2(p)
		tau := math.Sqrt(math.Max(radius*radius-base*base, 0))
		for i := 0; i < n; i++ {
			p[i] += tau * v.At(i, 0)
		}
		return p, modelChange(h, g, p)
	}

	// Newton iterations on the secular equation 1/||p|| - 1/radius = 0,
	// safeguarded by expansion/bisection.
	hi := lam + 1
	for pnorm(hi) > radius {
		hi *= 4
	}
	lo := lam
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if pnorm(mid) > radius {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+hi) {
			break
		}
	}
	lam = (lo + hi) / 2
	for i := range p {
		p[i] = 0
	}
	for j := 0; j < n; j++ {
		coef := -ghat[j] / (w[j] + lam)
		for i := 0; i < n; i++ {
			p[i] += coef * v.At(i, j)
		}
	}
	return p, modelChange(h, g, p)
}

// modelChange returns gᵀp + ½ pᵀHp.
func modelChange(h *linalg.Mat, g, p []float64) float64 {
	return linalg.Dot(g, p) + 0.5*linalg.QuadForm(h, p)
}

// steepestToBoundary writes into p the steepest-descent step to the
// trust-region boundary (zero when g is zero) and returns it with its
// predicted change in objective.
func steepestToBoundary(p []float64, h *linalg.Mat, g []float64, radius float64) ([]float64, float64) {
	gn := linalg.Norm2(g)
	if gn == 0 {
		for i := range p {
			p[i] = 0
		}
		return p, 0
	}
	for i := range p {
		p[i] = -g[i] / gn * radius
	}
	return p, modelChange(h, g, p)
}

func infNorm(g []float64) float64 {
	var m float64
	for _, v := range g {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// LBFGSOptions configures LBFGS.
type LBFGSOptions struct {
	MaxIter int     // default 2000 (the paper's observed worst case)
	GradTol float64 // default 1e-8
}

// lbfgsMemory is the number of s/y pairs LBFGS keeps.
const lbfgsMemory = 10

// LBFGS minimizes fg from x0 with limited-memory BFGS and an Armijo
// backtracking line search. It exists primarily for the Newton-vs-L-BFGS
// ablation benchmark; Celeste proper uses NewtonTRWS. It never builds a
// Hessian: every fg call counts as one of Result.GradEvals.
//
// fg's returned gradient is read only until the next fg call, so the
// objective may return the same backing slice every time — LBFGS copies what
// it keeps (the current gradient and the s/y history) into storage allocated
// once up front, so a 2000-iteration ablation run no longer allocates a
// gradient pair per iteration.
func LBFGS(fg func(x []float64) (float64, []float64), x0 []float64, opts LBFGSOptions) Result {
	if opts.MaxIter == 0 {
		opts.MaxIter = 2000
	}
	if opts.GradTol == 0 {
		opts.GradTol = 1e-8
	}
	n := len(x0)
	m := lbfgsMemory
	x := append([]float64(nil), x0...)
	res := Result{X: x}

	f, g := fg(x)
	res.GradEvals++
	res.F = f

	// History ring: m s/y pairs allocated once and recycled oldest-first.
	// start indexes the oldest live pair, count the number live; the k-th
	// oldest lives at (start+k) mod m.
	type pair struct {
		s, y []float64
		rho  float64
	}
	histBuf := make([]float64, 2*m*n)
	hist := make([]pair, m)
	for i := range hist {
		hist[i].s = histBuf[(2*i)*n : (2*i+1)*n]
		hist[i].y = histBuf[(2*i+1)*n : (2*i+2)*n]
	}
	start, count := 0, 0

	gcur := append([]float64(nil), g...)
	dir := make([]float64, n)
	alpha := make([]float64, m)
	trial := make([]float64, n)
	snew := make([]float64, n)
	ynew := make([]float64, n)

	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		gnorm := infNorm(gcur)
		res.GradNorm = gnorm
		if gnorm < opts.GradTol {
			res.Converged = true
			res.Status = StopGradTol
			return res
		}

		// Two-loop recursion, newest to oldest and back.
		copy(dir, gcur)
		for k := count - 1; k >= 0; k-- {
			h := &hist[(start+k)%m]
			alpha[k] = h.rho * linalg.Dot(h.s, dir)
			linalg.Axpy(-alpha[k], h.y, dir)
		}
		if count > 0 {
			last := &hist[(start+count-1)%m]
			gamma := linalg.Dot(last.s, last.y) / linalg.Dot(last.y, last.y)
			for i := range dir {
				dir[i] *= gamma
			}
		}
		for k := 0; k < count; k++ {
			h := &hist[(start+k)%m]
			beta := h.rho * linalg.Dot(h.y, dir)
			linalg.Axpy(alpha[k]-beta, h.s, dir)
		}
		for i := range dir {
			dir[i] = -dir[i]
		}
		if linalg.Dot(dir, gcur) >= 0 {
			// Not a descent direction: reset to steepest descent.
			count = 0
			for i := range dir {
				dir[i] = -gcur[i]
			}
		}

		// Armijo backtracking.
		step := 1.0
		const c1 = 1e-4
		gd := linalg.Dot(gcur, dir)
		var ft float64
		var gt []float64
		accepted := false
		for ls := 0; ls < 50; ls++ {
			for i := range trial {
				trial[i] = x[i] + step*dir[i]
			}
			ft, gt = fg(trial)
			res.GradEvals++
			if ft <= f+c1*step*gd && !math.IsNaN(ft) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			res.Status = StopLineSearch
			return res
		}

		// Curvature pair from the just-returned gradient (gt is only valid
		// until the next fg call).
		for i := range snew {
			snew[i] = trial[i] - x[i]
			ynew[i] = gt[i] - gcur[i]
		}
		sy := linalg.Dot(snew, ynew)
		if sy > 1e-10 {
			var slot *pair
			if count < m {
				slot = &hist[(start+count)%m]
				count++
			} else {
				slot = &hist[start]
				start = (start + 1) % m
			}
			copy(slot.s, snew)
			copy(slot.y, ynew)
			slot.rho = 1 / sy
		}
		copy(x, trial)
		copy(gcur, gt)
		f = ft
		res.F = f
	}
	res.Status = StopIterLimit
	return res
}

// eigFloorRel is the relative spectrum floor of the trust-region subproblem
// solver: eigenvalues below eigFloorRel times the largest eigenvalue
// magnitude are treated as zero. It sits well above the eigensolver's
// ~1e-16·‖H‖ backward error and well below any curvature the objective
// genuinely exhibits (the smallest real ELBO eigenvalue magnitudes are
// ~1e-8·‖H‖, from the KL anchor on collapsed source types).
const eigFloorRel = 1e-15

// machEps is the double-precision machine epsilon, the relative noise floor
// of the eigendecomposition (backward error ~machEps·‖H‖).
const machEps = 2.220446049250313e-16
