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

// TrialAdjuster is an optional extension of Objective for an objective that
// knows more about some coordinates than the quadratic model does. When the
// trust-region step is interior, NewtonTRWS hands AdjustTrial the iterate x,
// its gradient g and the trial point x+p before Full evaluates the trial;
// the objective may move trial in place and reports whether it did. The
// moved trial is judged by the ordinary ratio test against the step's own
// predicted decrease, and a rejected one leaves the iterate's derivatives
// and cached factorization as any rejected trial does. After a rejected
// moved trial, the next trials from the same iterate go unadjusted: an
// interior step does not change as the radius shrinks, so a second
// adjustment would evaluate the same refused point again.
type TrialAdjuster interface {
	AdjustTrial(x, g, trial []float64) bool
}

// StepBounder is an optional extension of Objective for an objective that
// knows a step length some coordinates should not exceed, whatever the trust
// radius allows — a length the radius cannot express when the coordinates
// have different units. NewtonTRWS hands BoundStep the iterate x and each
// subproblem step p as soon as it is solved; the objective may shorten p in
// place and reports whether it did. A shortened step's predicted decrease is
// recomputed from the quadratic model at the shortened step, and the step
// counts as clipped, not interior: it never ends a run on the decrement test
// and is never offered to AdjustTrial. The trust radius is updated from the
// ratio test as for any clipped step.
type StepBounder interface {
	BoundStep(x, p []float64) bool
}

// Workspace holds every buffer a NewtonTRWS run needs: the iterate and trial
// point, two gradient/Hessian pairs (the iterate's and the trial's, swapped
// when a trial is accepted), the subproblem step, and the Cholesky storage.
// Reusing one Workspace across fits makes the optimizer's own linear algebra
// allocation-free; a workspace serves one optimization at a time.
type Workspace struct {
	n           int
	x, trial, p []float64
	g, gTrial   []float64
	h, hTrial   *linalg.Mat
	q           []float64   // subproblem scratch: L⁻¹p, or toBoundary's direction
	chol        *linalg.Mat // Cholesky factor of the iterate's Hessian
	shift       *linalg.Mat // Cholesky factor of the last H + λI tried

	// Cached factorization state for the iterate's Hessian. Radius
	// backtracking solves several trust-region subproblems against one H,
	// so its unshifted Cholesky factor is computed at most once per accepted
	// point; a rejected trial writes only the trial pair and leaves it
	// valid. The three-valued state distinguishes "not yet tried" from a
	// cached success or failure.
	cholState facState

	// factorizations counts the factorizations of iterates' Hessians since
	// the last ensure: at most one per accepted point, however many
	// subproblems radius backtracking solves against it. The shifted
	// factorizations of H + λI a boundary step needs are not counted.
	factorizations int

	// interior records whether the last solveTRSubproblem step is the
	// model's minimizer strictly inside the trust region, not a step the
	// radius clipped or a StepBounder shortened; only such a step's
	// predicted decrease measures how far the model's optimum is
	// (TROptions.DecrementTol).
	interior bool
}

// facState is a cached factorization outcome.
type facState uint8

const (
	facUnknown facState = iota // not attempted for the current Hessian
	facOK                      // factorization cached in the workspace
	facFailed                  // factorization failed; do not retry
)

// noteHessianChanged invalidates the cached factorization; the optimizer
// calls it when a trial is accepted.
func (w *Workspace) noteHessianChanged() {
	w.cholState = facUnknown
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
	w.q = make([]float64, n)
	w.chol = linalg.NewMat(n, n)
	w.shift = linalg.NewMat(n, n)
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
	// covers the directions the solver resolves: when H needs the spectrum
	// floor's shift to factor, curvature below the floor counts as the
	// floor. A step the radius clipped never stops a run. 0 disables the
	// test.
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
// trust-region subproblem is solved exactly by Moré–Sorensen iterations on
// Cholesky factorizations of H + λI (solveTRSubproblem), which handle
// indefinite Hessians — the reason the paper pairs Newton's method with a
// trust region on its nonconvex objective. Each iteration costs at most one
// Full evaluation, at the trial point, into the workspace's trial pair: an
// accepted trial swaps that pair in as the iterate's, so every subproblem is
// solved against the exact Hessian at the current iterate; a rejected trial
// leaves the iterate's gradient, Hessian and cached factorization as they
// were, and the next subproblem re-solves against them at a smaller radius.
// An objective that implements StepBounder may shorten each step, and one
// that implements TrialAdjuster may move an interior step's trial point
// before it is evaluated. It runs entirely inside ws: the
// iterate, trial point, derivatives, step, and factorization storage all
// live in the workspace, so with an objective that allocates nothing a whole
// optimization allocates nothing. Result.X aliases workspace storage and is
// valid until the next NewtonTRWS call with the same workspace.
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

	// adj is the objective's trial adjuster, nil while the current iterate
	// may not adjust (none offered, or its adjusted trial was refused).
	adjuster, _ := obj.(TrialAdjuster)
	adj := adjuster
	bounder, _ := obj.(StepBounder)

	trial := ws.trial
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		gnorm := infNorm(ws.g)
		res.GradNorm = gnorm
		if gnorm < opts.GradTol {
			res.Converged = true
			res.Status = StopGradTol
			return res
		}

		p, predicted := boundedStep(ws, bounder, radius)
		interior := ws.interior
		if opts.DecrementTol > 0 && interior && -predicted < opts.DecrementTol {
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
				return res
			}
			continue
		}
		for i := range trial {
			trial[i] = x[i] + p[i]
		}
		adjusted := interior && adj != nil && adj.AdjustTrial(x, ws.g, trial)
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
			copy(x, trial)
			ws.g, ws.gTrial = ws.gTrial, ws.g
			ws.h, ws.hTrial = ws.hTrial, ws.h
			ws.noteHessianChanged()
			f = ft
			res.F = f
			adj = adjuster
		} else {
			res.Rejected++
			if adjusted {
				adj = nil
			}
		}
		if radius < minRadius {
			res.Status = StopCollapsed
			res.GradNorm = infNorm(ws.g)
			res.Converged = res.GradNorm < 1e-4
			return res
		}
	}
	res.Status = StopIterLimit
	res.GradNorm = infNorm(ws.g)
	return res
}

// boundedStep solves the trust-region subproblem at the iterate ws.x with
// its gradient and Hessian, and lets bounder (nil for none) shorten the
// step. It returns the step, aliasing ws.p, and its predicted change, which
// for a shortened step is the model's at that step; a shortened step is
// never interior (ws.interior).
func boundedStep(ws *Workspace, bounder StepBounder, radius float64) ([]float64, float64) {
	p, predicted := solveTRSubproblem(ws, ws.h, ws.g, radius)
	if bounder != nil && bounder.BoundStep(ws.x, p) {
		predicted = modelChange(ws.h, ws.g, p)
		ws.interior = false
	}
	return p, predicted
}

// solveTRSubproblem returns the minimizer p of gᵀp + ½ pᵀHp subject to
// ||p|| <= radius, and the predicted change in objective (negative for
// descent), by the Moré–Sorensen method: p = −(H + λI)⁻¹g for the λ ≥ 0
// that makes H + λI positive definite and either is 0 with p inside the
// radius or puts p on the boundary. Only Cholesky factorizations are used,
// so indefinite Hessians (the nonconvex ELBO's) cost a few extra
// factorizations and no eigendecomposition. The returned step aliases ws.p;
// all factorization storage comes from ws, and whether the step is interior
// is left in ws.interior.
//
//  1. λ = 0: the Newton step, if H factors and the step is inside the
//     radius. This factorization is cached in the workspace until
//     noteHessianChanged, so radius backtracking re-solves it with one
//     O(n²) backsolve.
//  2. The spectrum floor, λ = 2·eigFloorRel·‖H‖_F: if H + λI factors and
//     its step is inside the radius, the step is interior. Curvature below
//     the floor cannot be told from zero, and the shift keeps noise-level
//     eigenvalues (negative ones included) from sending the step to the
//     boundary.
//  3. Otherwise the step lies on the boundary: safeguarded Newton
//     iterations on the secular equation 1/‖p(λ)‖ − 1/radius = 0 within
//     the bracket [lo, hi] of Moré and Sorensen (1983), which every
//     factorization narrows (one that fails, or a step outside the radius,
//     raises lo; a step inside it lowers hi), until ‖p‖ is within
//     1e-10·radius of the radius. A Newton correction to λ below the
//     spectrum floor, the rounding scale of the factorization, ends them
//     too, and the step is then completed onto the boundary (toBoundary).
//  4. If the bracket closes first, g (numerically) misses the most negative
//     curvature direction — the hard case — and p at the bracket's top is
//     completed to the boundary along that direction (toBoundary).
//
// A Hessian with a non-finite entry gets the steepest-descent step to the
// boundary, and so does a zero Hessian, whose model is linear.
func solveTRSubproblem(ws *Workspace, h *linalg.Mat, g []float64, radius float64) ([]float64, float64) {
	p := ws.p
	ws.interior = false

	if ws.cholState == facUnknown {
		ws.factorizations++
		if err := linalg.Cholesky(ws.chol, h); err == nil {
			ws.cholState = facOK
		} else {
			ws.cholState = facFailed
		}
	}
	if ws.cholState == facOK {
		newtonStep(ws.chol, p, g)
		if linalg.Norm2(p) <= radius {
			ws.interior = true
			return p, modelChange(h, g, p)
		}
	}

	hNorm, k := frobeniusMinDiag(h)
	if hNorm == 0 || math.IsInf(hNorm, 0) || math.IsNaN(hNorm) {
		return steepestToBoundary(p, h, g, radius)
	}
	gNorm := linalg.Norm2(g)
	lo := math.Max(0, math.Max(-h.At(k, k), gNorm/radius-hNorm))
	hi := gNorm/radius + hNorm
	floorShift := 2 * eigFloorRel * hNorm
	lam, floor := floorShift, floorShift >= lo
	if !floor {
		lam = inBracket(lo, hi)
	}
	for iter := 0; iter < maxSecularIter && hi-lo > 1e-10*hi; iter++ {
		if !ws.shiftedStep(h, g, lam) {
			// H + λI is indefinite: λ lies below −λ_min.
			lo, floor = lam, false
			lam = inBracket(lo, hi)
			continue
		}
		pn := linalg.Norm2(p)
		if floor && pn <= radius {
			ws.interior = true
			return p, modelChange(h, g, p)
		}
		floor = false
		if pn < radius {
			hi = lam
		} else {
			lo = lam
		}
		if math.Abs(pn-radius) <= 1e-10*radius {
			return p, modelChange(h, g, p)
		}
		// Newton step on 1/‖p(λ)‖: with LLᵀ = H + λI and q = L⁻¹p, the
		// derivative of ‖p‖ is −‖q‖²/‖p‖.
		q := ws.q
		copy(q, p)
		linalg.SolveLower(ws.shift, q)
		r := pn / linalg.Norm2(q)
		step := r * r * (pn - radius) / radius
		if math.Abs(step) <= floorShift {
			// λ is resolved as finely as it can be: a correction below the
			// spectrum floor is below the rounding of the factorization,
			// which makes ‖p(λ)‖ noisy at that scale.
			return ws.toBoundary(h, g, radius, k)
		}
		if lam += step; !(lam > lo && lam < hi) {
			lam = inBracket(lo, hi)
		}
	}
	// The bracket closed (or the iterations ran out) short of the boundary:
	// the hard case.
	if !ws.shiftedStep(h, g, hi) {
		return steepestToBoundary(p, h, g, radius)
	}
	return ws.toBoundary(h, g, radius, k)
}

// maxSecularIter bounds the factorizations of one boundary solve. Newton's
// iteration converges in a handful; the bound only caps the bisection that
// closes the bracket in the hard case, which halves it (in ratio) per
// factorization.
const maxSecularIter = 100

// inBracket returns a safeguarded trial λ strictly inside (lo, hi): the
// geometric mean, kept at least a thousandth of the bracket above lo.
func inBracket(lo, hi float64) float64 {
	return math.Max(math.Sqrt(lo*hi), lo+1e-3*(hi-lo))
}

// shiftedStep factors H + λI into ws.shift and, if it is positive definite,
// writes p = −(H + λI)⁻¹g into ws.p and reports true.
func (ws *Workspace) shiftedStep(h *linalg.Mat, g []float64, lam float64) bool {
	ws.shift.CopyFrom(h)
	for i := 0; i < ws.n; i++ {
		ws.shift.Add(i, i, lam)
	}
	if linalg.Cholesky(ws.shift, ws.shift) != nil {
		return false
	}
	newtonStep(ws.shift, ws.p, g)
	return true
}

// newtonStep writes p = −(LLᵀ)⁻¹g for the Cholesky factor L.
func newtonStep(l *linalg.Mat, p, g []float64) {
	linalg.SolveCholesky(l, p, g)
	for i := range p {
		p[i] = -p[i]
	}
}

// toBoundary moves p = p(λ), whose H + λI is factored in ws.shift, onto the
// boundary along z, the near-null vector of H + λI found by a few steps of
// inverse iteration on the factor. With λ close to −λ_min that is the
// eigenvector of H's most negative eigenvalue, the direction along which
// ‖p(λ)‖ is least resolved, or (the hard case) the one that g misses; a
// step along it changes (H + λI)p by only (λ + λ_min)·‖z‖. If no multiple of
// z reaches the boundary, p is scaled onto it. The iteration starts from
// coordinate k, that of H's smallest diagonal entry, the one most likely to
// overlap the negative-curvature direction.
func (ws *Workspace) toBoundary(h *linalg.Mat, g []float64, radius float64, k int) ([]float64, float64) {
	p, z := ws.p, ws.q
	for i := range z {
		z[i] = 0
	}
	z[k] = 1
	for it := 0; it < 3; it++ {
		linalg.SolveCholesky(ws.shift, z, z)
		zn := linalg.Norm2(z)
		for i := range z {
			z[i] /= zn
		}
	}
	// ‖p + τz‖ = radius has two roots; to first order both gain the same,
	// and the smaller leans least on z's accuracy.
	pz, pn := linalg.Dot(p, z), linalg.Norm2(p)
	if d := pz*pz + radius*radius - pn*pn; d >= 0 {
		linalg.Axpy(math.Copysign(math.Sqrt(d), pz)-pz, z, p)
	} else {
		for i := range p {
			p[i] *= radius / pn
		}
	}
	return p, modelChange(h, g, p)
}

// frobeniusMinDiag returns the Frobenius norm of the symmetric matrix h,
// from its lower triangle, and the index of its smallest diagonal entry. A
// non-finite entry makes the norm non-finite.
func frobeniusMinDiag(h *linalg.Mat) (norm float64, k int) {
	var ss float64
	for i := 0; i < h.Rows; i++ {
		for j := 0; j < i; j++ {
			ss += 2 * h.At(i, j) * h.At(i, j)
		}
		d := h.At(i, i)
		ss += d * d
		if d < h.At(k, k) {
			k = i
		}
	}
	return math.Sqrt(ss), k
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
// solver: curvature below eigFloorRel·‖H‖ cannot be told from zero. The
// solver's floor try shifts H by twice that (with ‖H‖_F ≥ ‖H‖₂), which lifts
// an eigenvalue as far below zero as the floor is above it back over the
// floor. It sits well above Cholesky's ~n·1e-16·‖H‖ backward error and well
// below any curvature the objective genuinely exhibits (the smallest real
// ELBO eigenvalue magnitudes are ~1e-8·‖H‖, from the KL anchor on collapsed
// source types).
const eigFloorRel = 1e-15
