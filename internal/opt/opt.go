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

// Objective is what NewtonTRWS minimizes, exposing the three evaluation
// tiers the trust region mixes: Full returns value, gradient, and Hessian
// (the optimizer only reads them until the next Full call, so the
// implementation may reuse its own buffers); Grad returns value and gradient
// without the Hessian (the tier lazy-Hessian iterations run their
// accepted-step bookkeeping on — the gradient slice follows the same reuse
// contract as Full's); Value returns the value alone for trust-region ratio
// tests.
type Objective interface {
	Full(x []float64) (f float64, g []float64, h *linalg.Mat)
	Grad(x []float64) (f float64, g []float64)
	Value(x []float64) float64
}

// Workspace holds every buffer a NewtonTRWS run needs: the iterate and trial
// point, the subproblem step, and the Cholesky/eigendecomposition storage.
// Reusing one Workspace across fits makes the optimizer's own linear algebra
// allocation-free; a workspace serves one optimization at a time.
type Workspace struct {
	n             int
	x, trial, p   []float64
	ghat          []float64
	chol          *linalg.Mat
	eigVecs       *linalg.Mat
	eigVals, eigE []float64

	// Cached factorization state for the current Hessian. Lazy-Hessian
	// iterations solve several trust-region subproblems against one factored
	// H, so the Cholesky factor and the eigendecomposition are computed at
	// most once per Hessian refresh; ghat = Vᵀg is recomputed only when the
	// gradient changes. The three-valued states distinguish "not yet tried"
	// from a cached success or failure.
	cholState, eigState facState
	ghatOK              bool

	// Lazy-Hessian model state: hmod holds the exact Hessian at the last
	// refresh plus the SR1 secant corrections absorbed from the gradient-tier
	// steps since; gprev and hs are the secant-update scratch vectors.
	// approxOK/approxSigma cache the shifted-Cholesky factorization of the
	// Levenberg fast path (see solveTRSubproblemApprox).
	hmod          *linalg.Mat
	gprev, hs, gs []float64
	approxOK      bool
	approxSigma   float64

	// facFor records which matrix the cached factorizations describe: lazy
	// iterations alternate between the objective's Hessian (fresh solves)
	// and the workspace model (stale solves), and a cache built for one
	// must not be served for the other.
	facFor *linalg.Mat

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
// calls it after each Full evaluation.
func (w *Workspace) noteHessianChanged() {
	w.cholState = facUnknown
	w.eigState = facUnknown
	w.ghatOK = false
	w.approxOK = false
}

// noteGradChanged invalidates the cached ghat projection; the optimizer
// calls it whenever the gradient is re-evaluated.
func (w *Workspace) noteGradChanged() { w.ghatOK = false }

// NewWorkspace returns a Workspace for n-dimensional problems.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.ensure(n)
	return w
}

// ensure sizes the workspace for dimension n, reallocating only on change.
func (w *Workspace) ensure(n int) {
	w.noteHessianChanged()
	if w.n == n {
		return
	}
	w.n = n
	w.x = make([]float64, n)
	w.trial = make([]float64, n)
	w.p = make([]float64, n)
	w.ghat = make([]float64, n)
	w.chol = linalg.NewMat(n, n)
	w.eigVecs = linalg.NewMat(n, n)
	w.eigVals = make([]float64, n)
	w.eigE = make([]float64, n)
	w.hmod = linalg.NewMat(n, n)
	w.gprev = make([]float64, n)
	w.hs = make([]float64, n)
	w.gs = make([]float64, n)
}

// sr1Update folds the secant pair (s, y) into the model Hessian:
// H += (y−Hs)(y−Hs)ᵀ / ((y−Hs)ᵀs). SR1 is the symmetric update that can
// represent indefinite curvature — exactly what the trust-region subproblem
// solver is built to handle — and with the standard denominator safeguard it
// is skipped when the correction is numerically meaningless. Returns whether
// the model changed.
func (w *Workspace) sr1Update(s, y []float64) bool {
	r := w.hs
	linalg.SymMulVec(w.hmod, r, s) // r = H·s
	for i := range r {
		r[i] = y[i] - r[i] // r = y − H·s
	}
	// Skip insignificant corrections: when the model already explains the
	// observed secant to 0.1%, updating would buy nothing but invalidate the
	// cached factorization (an O(n³) eigendecomposition per subsequent
	// subproblem solve). This is the common case in the calm endgame, which
	// is exactly where lazy steps cluster.
	rn := linalg.Norm2(r)
	if rn <= 1e-3*linalg.Norm2(y) {
		return false
	}
	denom := linalg.Dot(r, s)
	if math.Abs(denom) < 1e-8*linalg.Norm2(s)*rn {
		return false
	}
	// Bound the correction's spectral magnitude (‖r‖²/|denom|) by the
	// model's own scale. A near-orthogonal secant pair passes the classical
	// denominator test yet injects an enormous rank-1 distortion — on badly
	// scaled objectives (degree-scale positions next to O(1) logits with
	// curvatures spanning ~14 decades) a single such update can poison the
	// position block, after which "Newton" steps degenerate into raw clipped
	// gradient steps that walk a source many pixels off. Oversized
	// corrections are dropped; if the model truly is that wrong, the ρ
	// refresh trigger replaces it with an exact Hessian instead.
	var scale float64
	n := w.n
	for i := 0; i < n; i++ {
		if a := math.Abs(w.hmod.Data[i*n+i]); a > scale {
			scale = a
		}
	}
	if rn*rn > 0.1*scale*math.Abs(denom) {
		return false
	}
	inv := 1 / denom
	for i := 0; i < n; i++ {
		ri := r[i] * inv
		row := w.hmod.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			row[j] += ri * r[j]
		}
	}
	return true
}

// Result reports an optimization run.
type Result struct {
	X         []float64
	F         float64
	Iters     int // outer iterations
	FullEvals int // gradient+Hessian evaluations
	GradEvals int // gradient-only evaluations (lazy-Hessian iterations)
	ValEvals  int // value-only evaluations
	GradNorm  float64
	Radius    float64 // final trust radius (warm-start hint for refits)
	Converged bool
	Status    string
}

// TROptions configures NewtonTRWS.
type TROptions struct {
	MaxIter    int     // maximum outer iterations (default 100)
	GradTol    float64 // terminate when ||g||_inf < GradTol (default 1e-8)
	InitRadius float64 // initial trust radius (default 1)
	MaxRadius  float64 // radius cap (default 1e3)
	MinRadius  float64 // radius floor: treat as converged (default 1e-12)

	// LazyHessian enables the three-tier evaluation mode: the Hessian (and
	// its factorization) is reused across iterations, accepted steps refresh
	// only the value and gradient through Objective.Grad, and the Hessian is
	// re-evaluated only when a refresh trigger fires — the step-quality
	// ratio ρ degrades below HessRefreshRho, the trust radius collapses
	// below HessRefreshRadius, or HessStride accepted steps elapse on one
	// Hessian. Convergence checks always run on a fresh gradient.
	LazyHessian bool

	// HessStride bounds how many accepted steps may run on one Hessian
	// before a forced refresh (default 8).
	HessStride int

	// HessRefreshRho refreshes the Hessian when an accepted step's ratio of
	// actual to predicted decrease falls below it (default 0.8): the
	// quadratic model is mispredicting, and with a stale Hessian the
	// staleness is the first suspect.
	HessRefreshRho float64

	// HessRefreshRadius refreshes the Hessian when the trust radius falls
	// below it while stale (default InitRadius/16): repeated rejections at a
	// collapsing radius mean the model is wrong at every scale, which a
	// stale Hessian can cause and a fresh one rules out.
	HessRefreshRadius float64

	// Scale, when non-nil (length n), makes the trust region elliptical for
	// the lazy (stale-model) steps: their constraint becomes
	// ‖diag(Scale)·p‖ ≤ radius, solved exactly by a change of variables,
	// while fresh-Hessian steps keep the spherical region. Badly scaled
	// objectives need this: Celeste mixes degree-scale positions with O(1)
	// logits, so a spherical radius-0.5 region permits half-degree
	// (thousands of pixels) position steps. Under an exact Hessian that is
	// harmless — the ~1e11 deg⁻² position curvature keeps Newton steps tiny
	// — but a stale model that underestimates that curvature can jump a
	// source across a likelihood barrier it could never cross with exact
	// steps. Scaling position coordinates to pixels bounds a stale step's
	// position motion by the radius itself.
	Scale []float64

	// DecrementTol, when positive, is a second stopping test, free of the
	// gradient's units: on a fresh Hessian (an exact Full evaluation, no
	// stale or SR1-corrected model) whose trust-region step is interior, a
	// predicted decrease −(gᵀp + ½pᵀHp) below DecrementTol ends the run as
	// converged, without evaluating the trial point. For an interior Newton
	// step that decrease is ½λ², λ the Newton decrement, so the iterate lies
	// within √(2·DecrementTol) of the quadratic model's optimum in the exact
	// Hessian's metric, in every coordinate at once — which an infinity norm
	// over degree-scale positions and O(1) logits cannot say. A stale model
	// or a step the radius clipped never stops a run. 0 disables the test.
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
	if o.MinRadius == 0 {
		o.MinRadius = 1e-12
	}
	if o.HessStride == 0 {
		o.HessStride = 8
	}
	if o.HessRefreshRho == 0 {
		o.HessRefreshRho = 0.8
	}
	if o.HessRefreshRadius == 0 {
		o.HessRefreshRadius = o.InitRadius / 16
	}
}

// NewtonTRWS minimizes obj from x0 with a trust-region Newton method. The
// trust-region subproblem is solved exactly via the symmetric
// eigendecomposition of the Hessian (with Cholesky fast paths), which handles
// indefinite Hessians — the reason the paper pairs Newton's method with a
// trust region on its nonconvex objective. It runs entirely inside ws: the
// iterate, trial point, step, and factorization storage all live in the
// workspace, so with an objective that also reuses its buffers a whole
// optimization allocates nothing. Result.X aliases workspace storage and is
// valid until the next NewtonTRWS call with the same workspace.
//
// With opts.LazyHessian the loop runs the three-tier scheme: the Hessian and
// its factorization persist across iterations (staleAge counts accepted
// steps on the current one), accepted steps re-evaluate only value and
// gradient through obj.Grad, and obj.Full runs only when a refresh trigger
// fires (see TROptions). The gradient is fresh at every convergence check in
// either mode.
func NewtonTRWS(obj Objective, x0 []float64, ws *Workspace, opts TROptions) Result {
	opts.defaults()
	n := len(x0)
	ws.ensure(n)
	x := ws.x
	copy(x, x0)
	res := Result{X: x}

	radius := opts.InitRadius
	D := opts.Scale
	if D != nil && len(D) != n {
		panic("opt: TROptions.Scale length does not match the problem dimension")
	}
	f, g, h := obj.Full(x)
	res.FullEvals++
	res.F = f

	// Fresh-Hessian iterations solve against the objective'"'"'s own h and g in
	// the original variables — identical geometry to the eager mode. Lazy
	// iterations solve against the workspace model: hmod is a copy of the
	// last exact Hessian (so SR1 corrections never touch objective-owned
	// storage), transformed with gs into the scaled variables q = D·p when
	// a Scale is set. Predicted model changes are invariant under the
	// change of variables, so ratio tests need no adjustment; convergence
	// always checks the unscaled gradient.
	applyModel := func() {
		if opts.LazyHessian {
			ws.hmod.CopyFrom(h)
			if D != nil {
				scaleHessian(ws.hmod, D)
			}
		}
		ws.noteHessianChanged()
	}
	applyGrad := func() {
		if opts.LazyHessian && D != nil {
			for i := range ws.gs {
				ws.gs[i] = g[i] / D[i]
			}
		}
		ws.noteGradChanged()
	}
	applyModel()
	applyGrad()
	staleAge := 0 // accepted steps taken on the current Hessian

	// refreshAtX re-evaluates the full tier at the current iterate, renewing
	// a stale Hessian without moving. The value and gradient are recomputed
	// bitwise-identically (the objective is deterministic), so only the
	// Hessian model and the factorization cache actually change.
	refreshAtX := func() {
		f, g, h = obj.Full(x)
		res.FullEvals++
		applyModel()
		applyGrad()
		staleAge = 0
	}

	trial := ws.trial
	for iter := 0; iter < opts.MaxIter; iter++ {
		res.Iters = iter + 1
		res.Radius = radius
		gnorm := infNorm(g)
		res.GradNorm = gnorm
		if gnorm < opts.GradTol {
			res.Converged = true
			res.Status = "gradient tolerance reached"
			return res
		}

		var p []float64
		var predicted float64
		scaledStep := false
		if staleAge > 0 {
			gm := g
			if D != nil {
				gm = ws.gs
				scaledStep = true
			}
			if gnorm > 1e3*opts.GradTol {
				// Far-from-converged stale (SR1-corrected) models take the
				// Levenberg fast path: re-running the exact eigendecompo-
				// sition after every significant secant correction would
				// cost more than the gradient tier saves. The endgame stays
				// on the exact solver — its near-null-direction handling is
				// what closes the final tolerance decades, and SR1
				// corrections become insignificant there (skipped), so its
				// factorizations cache.
				var ok bool
				if p, predicted, ok = solveTRSubproblemApprox(ws, ws.hmod, gm, radius); !ok {
					p, predicted = solveTRSubproblem(ws, ws.hmod, gm, radius)
				}
			} else {
				p, predicted = solveTRSubproblem(ws, ws.hmod, gm, radius)
			}
		} else {
			p, predicted = solveTRSubproblem(ws, h, g, radius)
			if opts.DecrementTol > 0 && ws.interior && -predicted < opts.DecrementTol {
				res.Converged = true
				res.Status = "Newton decrement below tolerance"
				return res
			}
		}
		if predicted >= 0 {
			if staleAge > 0 {
				// The stale model admits no descent; refresh before acting
				// on its verdict.
				refreshAtX()
				continue
			}
			// No descent possible within the model; shrink and retry.
			radius *= 0.25
			if radius < opts.MinRadius {
				res.Status = "trust region collapsed"
				res.Converged = gnorm < 1e-4
				res.Radius = radius
				return res
			}
			continue
		}
		if scaledStep {
			for i := range trial {
				trial[i] = x[i] + p[i]/D[i]
			}
		} else {
			for i := range trial {
				trial[i] = x[i] + p[i]
			}
		}
		ft := obj.Value(trial)
		res.ValEvals++
		actual := ft - f
		rho := actual / predicted // both negative for progress

		accepted := rho > 1e-4 && actual < 0 && !math.IsNaN(ft)
		if !accepted && staleAge > 0 {
			// A rejected step on a stale Hessian: blame the staleness before
			// the radius — refresh and re-propose at the same radius instead
			// of walking the radius down against a model already known to
			// mispredict. (Shrinking here is what turns one stale Hessian
			// into a chain of micro-steps.)
			refreshAtX()
			continue
		}

		// NaN-robust radius update: a non-finite trial value (overflowed
		// exponentials far from the optimum) must shrink the region, so the
		// conditions are phrased to treat NaN like failure.
		if rho > 0.75 && linalg.Norm2(p) > 0.8*radius {
			radius = math.Min(2*radius, opts.MaxRadius)
		} else if !(rho >= 0.25) {
			radius *= 0.25
		}
		if accepted {
			copy(x, trial)
			if !opts.LazyHessian ||
				staleAge+1 >= opts.HessStride ||
				!(rho >= opts.HessRefreshRho) ||
				radius < opts.HessRefreshRadius {
				refreshAtX()
			} else {
				// Gradient tier: re-evaluate value and gradient only, and
				// absorb the observed curvature of the accepted step into
				// the Hessian model as an SR1 secant correction (s = p,
				// y = Δg). The correction is what keeps stale-model steps
				// honest through the transient, where the true Hessian
				// moves too fast for a frozen one.
				copy(ws.gprev, g)
				f, g = obj.Grad(x)
				res.GradEvals++
				applyGrad()
				for i := range ws.gprev {
					ws.gprev[i] = g[i] - ws.gprev[i]
				}
				if D != nil {
					// hmod lives in the scaled variables: the secant pair
					// must too. A fresh-path step (spherical solve) is still
					// in the original variables; map it before updating.
					for i := range ws.gprev {
						ws.gprev[i] /= D[i]
					}
					if !scaledStep {
						for i := range p {
							p[i] *= D[i]
						}
					}
				}
				if ws.sr1Update(p, ws.gprev) {
					ws.noteHessianChanged()
				}
				staleAge++
			}
			res.F = f
		}
		if radius < opts.MinRadius {
			if staleAge > 0 {
				// Never declare collapse on a stale model.
				refreshAtX()
				continue
			}
			res.Status = "trust region collapsed"
			res.Converged = infNorm(g) < 1e-4
			res.GradNorm = infNorm(g)
			res.Radius = radius
			return res
		}
	}
	res.Status = "iteration limit"
	res.GradNorm = infNorm(g)
	res.Radius = radius
	return res
}

// solveTRSubproblem returns the minimizer p of gᵀp + ½ pᵀHp subject to
// ||p|| <= radius, and the predicted change in objective (negative for
// descent). Fast path: if H is positive definite (checked by Cholesky) and
// the Newton step is interior, return it. Otherwise solve the secular
// equation using the eigendecomposition (Moré–Sorensen). The returned step
// aliases ws.p; all factorization storage comes from ws.
//
// Both factorizations are cached in the workspace across calls until
// noteHessianChanged: lazy-Hessian iterations and radius backtracking re-solve
// against the same H, paying only the O(n²) backsolve (and, on the eigen
// path, a Vᵀg refresh when the gradient moved). Whether the step is interior
// is left in ws.interior.
func solveTRSubproblem(ws *Workspace, h *linalg.Mat, g []float64, radius float64) ([]float64, float64) {
	n := len(g)
	p := ws.p
	if ws.facFor != h {
		ws.noteHessianChanged()
		ws.facFor = h
	}
	ws.interior = false

	// Cholesky fast path.
	if ws.cholState == facUnknown {
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
	w, v := ws.eigVals, ws.eigVecs
	if ws.eigState == facUnknown {
		if err := linalg.EigenSymInto(h, w, v, ws.eigE); err == nil {
			ws.eigState = facOK
		} else {
			ws.eigState = facFailed
		}
		ws.ghatOK = false
	}
	if ws.eigState == facFailed {
		// Numerical disaster: fall back to steepest descent to the boundary.
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
	// ghat = Vᵀ g.
	ghat := ws.ghat
	if !ws.ghatOK {
		for j := 0; j < n; j++ {
			var s float64
			for i := 0; i < n; i++ {
				s += v.At(i, j) * g[i]
			}
			ghat[j] = s
		}
		ws.ghatOK = true
	}
	lmin := w[0]

	// Relative spectrum floor: eigenvalues within eigFloorRel of the largest
	// magnitude are indistinguishable from zero (the eigensolver's backward
	// error is ~machine epsilon times ‖H‖). Without it, noise-negative
	// eigenvalues make a numerically PSD Hessian look indefinite, and an
	// indefinite model's trust-region minimizer always rides the boundary —
	// the optimizer then pads every Newton step with junk components along
	// noise directions and converges by radius oscillation instead of
	// quadratically. ELBO Hessians hit this constantly: the softmax
	// responsibilities contribute curvature ~1e11 while collapsed directions
	// contribute ~0.
	scale := math.Max(math.Abs(w[0]), math.Abs(w[n-1]))
	if scale == 0 {
		// Zero Hessian: linear model, steepest descent to the boundary.
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

// solveTRSubproblemApprox is the Levenberg-style fast path for lazy-Hessian
// iterations: instead of the exact Moré–Sorensen machinery — whose
// eigendecomposition would have to be recomputed after every SR1 correction —
// it factors H + σI by Cholesky with the smallest shift σ (from a geometric
// ladder) that makes the model positive definite, takes the regularized
// Newton step, and clips it to the trust radius. The step is approximate,
// but every lazy step is already approximate (the model is stale), and the
// trust-region ratio test judges the result exactly like any other step; a
// failed factorization or a non-descent step falls back to the exact solver.
// The successful shift and factor are cached until the model changes, so
// radius retries cost one O(n²) backsolve.
func solveTRSubproblemApprox(ws *Workspace, h *linalg.Mat, g []float64, radius float64) ([]float64, float64, bool) {
	n := len(g)
	if ws.facFor != h {
		ws.noteHessianChanged()
		ws.facFor = h
	}
	if !ws.approxOK {
		var scale float64
		for i := 0; i < n; i++ {
			if a := math.Abs(h.At(i, i)); a > scale {
				scale = a
			}
		}
		if scale == 0 {
			return nil, 0, false
		}
		sigma := 0.0
		ok := false
		for try := 0; try < 30; try++ {
			if err := linalg.CholeskyShifted(ws.chol, h, sigma); err == nil {
				ok = true
				break
			}
			if sigma == 0 {
				sigma = eigFloorRel * scale
			} else {
				sigma *= 8
			}
			if sigma > 4*float64(n)*scale {
				break
			}
		}
		if !ok {
			return nil, 0, false
		}
		ws.approxOK = true
		ws.approxSigma = sigma
		if sigma == 0 {
			// The factor is the exact unshifted Cholesky factor: hand it to
			// the exact solver's cache so a later exact-path solve against
			// the same Hessian reuses it instead of re-factorizing.
			ws.cholState = facOK
		} else {
			// The factor storage holds a shifted factor the exact solver
			// must not mistake for H's.
			ws.cholState = facFailed
		}
	}
	p := ws.p
	linalg.SolveCholesky(ws.chol, p, g)
	for i := range p {
		p[i] = -p[i]
	}
	if pn := linalg.Norm2(p); pn > radius {
		s := radius / pn
		for i := range p {
			p[i] *= s
		}
	}
	return p, modelChange(h, g, p), true
}

// scaleHessian transforms h into D⁻¹·h·D⁻¹ in place (the Hessian of the
// objective in the scaled variables q = D·p).
func scaleHessian(h *linalg.Mat, d []float64) {
	n := h.Rows
	for i := 0; i < n; i++ {
		row := h.Data[i*n : (i+1)*n]
		di := d[i]
		for j := 0; j < n; j++ {
			row[j] /= di * d[j]
		}
	}
}

// modelChange returns gᵀp + ½ pᵀHp.
func modelChange(h *linalg.Mat, g, p []float64) float64 {
	return linalg.Dot(g, p) + 0.5*linalg.QuadForm(h, p)
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
	Memory  int     // default 10
}

// LBFGS minimizes fg from x0 with limited-memory BFGS and an Armijo
// backtracking line search. It exists primarily for the Newton-vs-L-BFGS
// ablation benchmark; Celeste proper uses NewtonTRWS.
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
	if opts.Memory == 0 {
		opts.Memory = 10
	}
	n := len(x0)
	m := opts.Memory
	x := append([]float64(nil), x0...)
	res := Result{X: x}

	f, g := fg(x)
	res.FullEvals++
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
			res.Status = "gradient tolerance reached"
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
			res.FullEvals++
			if ft <= f+c1*step*gd && !math.IsNaN(ft) {
				accepted = true
				break
			}
			step *= 0.5
		}
		if !accepted {
			res.Status = "line search failed"
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
	res.Status = "iteration limit"
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
