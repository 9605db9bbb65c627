// Package vi fits one light source's variational parameters by maximizing
// the ELBO with the Newton trust-region optimizer — the innermost level of
// the paper's three-level optimization scheme (Section IV). A fit runs the
// model.ParamDim-parameter block to machine tolerance while everything else
// (neighbors, image calibration) stays fixed.
package vi

import (
	"math"
	"time"

	"celeste/internal/elbo"
	"celeste/internal/linalg"
	"celeste/internal/model"
	"celeste/internal/opt"
)

// DefaultGradTol is the default infinity-norm gradient tolerance of a fit.
// A fit also stops once its exact Newton step has less than decrementTol
// left to gain, which in practice ends it first.
const DefaultGradTol = 1e-6

// decrementTol is the Newton-decrement stop of every fit, in nats of ELBO
// (opt.TROptions.DecrementTol). The gradient's infinity norm mixes
// per-degree positions (curvature ~1e11 deg⁻²) with O(1) logits, so on its
// own it keeps polishing positions long after the ELBO has stopped moving.
// At 1e-3 nats the iterate lies within √(2e-3) ≈ 0.045 of the quadratic
// model's optimum in the exact Hessian's norm. It also sets both thresholds
// of the decided-type jump (typeTail).
const decrementTol = 1e-3

// maxPosStepPx is the longest position move, in pixels of the problem's own
// pixel scale, that one Newton step may make (BoundStep). The trust radius
// is one length over coordinates in mixed units: positions in degrees
// (a pixel is ~1e-4), everything else O(1). A radius of 0.5 does not bind a
// position at all, so a poor first step can propose a move of several
// pixels; each refusal then quarters the radius until, near 1e-4, it binds
// the position — and by then it pins every other coordinate too, and the fit
// spends ten or more iterations doubling it back. Capping the position move
// directly leaves the radius to the O(1) coordinates.
const maxPosStepPx = 1

// Options configures a per-source fit.
type Options struct {
	MaxIter int // Newton iterations (default 60)

	// GradTol is the infinity-norm gradient tolerance (default 1e-6). The
	// fit stops on it or on the Newton decrement (decrementTol), whichever
	// comes first.
	GradTol float64

	// PatchWorkers is the number of intra-fit patch-sweep workers each
	// objective evaluation fans out to (default 1 = serial; see
	// elbo.Scratch.SetWorkers). Parallel evaluation is bitwise identical to
	// serial, so like core.Config.Threads this is purely a throughput knob —
	// the second level of the two-level thread budget, feeding cores beyond
	// the source-level sweep.
	PatchWorkers int
}

// defaults replaces unset or invalid (negative, NaN) options with their
// defaults: an optimizer handed a nonsensical tolerance or iteration budget
// must degrade to the documented default, not spin forever or do nothing.
func (o *Options) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 60
	}
	if !(o.GradTol > 0) {
		o.GradTol = DefaultGradTol
	}
	if o.PatchWorkers < 1 {
		o.PatchWorkers = 1
	}
}

// FitResult reports a per-source optimization.
type FitResult struct {
	Params    model.Params
	ELBO      float64
	Iters     int
	FullEvals int // full-tier evaluations: the start and every trial point
	GradEvals int // gradient-tier evaluations (L-BFGS)
	Rejected  int // trial points the trust-region ratio test refused

	// ValEvals counts value-tier evaluations. A fit judges its trials by
	// the full tier, so it is 0; the field stays for the benchmark harness's
	// vi.value_evals_per_fit lane.
	ValEvals  int
	Visits    int64 // active pixel visits (FLOP accounting)
	Converged bool
	Status    opt.StopReason

	// Wall-clock attribution, for the Section VII-A per-thread breakdown:
	// time inside objective evaluations (value+derivatives) versus the
	// optimizer's own linear algebra and bookkeeping.
	EvalSeconds  float64
	TotalSeconds float64
}

// Scratch owns every buffer a fit needs — the ELBO evaluation scratch
// (including the row-sweep kernel's SoA lanes) and the trust-region
// workspace with its gradient and Hessian pairs — and doubles as the
// opt.Objective (and opt.TrialAdjuster and opt.StepBounder) the optimizer
// calls. One Scratch serves one goroutine; after the first fit warms it,
// FitWith performs zero steady-state heap allocations, which is what lets a
// Cyclades worker sweep thousands of sources without touching the garbage
// collector.
type Scratch struct {
	es *elbo.Scratch
	ws *opt.Workspace

	// Per-fit state while a FitWith call is running.
	pb      *elbo.Problem
	theta   model.Params
	visits  int64
	evalSec float64
}

// NewScratch returns a Scratch ready for any per-source fit.
func NewScratch() *Scratch {
	return &Scratch{
		es: elbo.NewScratch(),
		ws: opt.NewWorkspace(model.ParamDim),
	}
}

// Full implements opt.Objective: the negated ELBO (opt minimizes), its
// gradient into g and its Hessian into h. Points outside the problem's
// position domain evaluate to +Inf and leave g and h as they were — beyond
// the patch window the likelihood gradient vanishes, and without the barrier
// a fit could wander out of its own pixel support and "converge" in empty
// sky (the trust region rejects the step and shrinks instead). At a point
// whose type is decided, g and h hold the unused type's branch (heldBranch).
func (s *Scratch) Full(x, g []float64, h *linalg.Mat) float64 {
	copy(s.theta[:], x)
	if !s.pb.InBounds(&s.theta) {
		return math.Inf(1)
	}
	t0 := time.Now()
	r := s.pb.EvalInto(&s.theta, s.es)
	s.evalSec += time.Since(t0).Seconds()
	s.visits += r.Visits
	for i := range g {
		g[i] = -r.Grad[i]
	}
	for i, v := range r.Hess.Data {
		h.Data[i] = -v
	}
	for _, i := range heldBranch(s.theta.TypeLogOdds()) {
		g[i] = 0
		for j := 0; j < h.Cols; j++ {
			h.Set(i, j, 0)
			h.Set(j, i, 0)
		}
		h.Set(i, i, 1)
	}
	return -r.Value
}

// The unused type's branch of a decided source: a decided galaxy's star
// brightness (r1, r2, c1[0..3], c2[0..3]), and a decided star's galaxy
// brightness plus the four galaxy-shape coordinates.
var (
	starBranch = [...]int{
		model.ParamR1, model.ParamR2,
		model.ParamC1, model.ParamC1 + 1, model.ParamC1 + 2, model.ParamC1 + 3,
		model.ParamC2, model.ParamC2 + 1, model.ParamC2 + 2, model.ParamC2 + 3,
	}
	galBranch = [...]int{
		model.ParamGalDevLogit, model.ParamGalABLogit, model.ParamGalAngle, model.ParamGalLogScale,
		model.ParamR1 + 1, model.ParamR2 + 1,
		model.ParamC1 + 4, model.ParamC1 + 5, model.ParamC1 + 6, model.ParamC1 + 7,
		model.ParamC2 + 4, model.ParamC2 + 5, model.ParamC2 + 6, model.ParamC2 + 7,
	}
)

// heldBranch returns the coordinates Full holds at a point whose type
// log-odds are a: the unused type's branch once the type is decided
// (q(1−q) ≤ decrementTol, typeTail's test), none otherwise. Full
// zeroes their gradient and gives them the identity's Hessian rows and
// columns, so every Newton step leaves them where they are; their values
// stay in the objective, so the ratio test judges the whole point. The hold
// is a function of the point alone: a point that falls back under the
// threshold releases the branch.
func heldBranch(a float64) []int {
	switch {
	case !(typeVar(a) <= decrementTol):
		return nil
	case a > 0:
		return starBranch[:]
	default:
		return galBranch[:]
	}
}

// typeVar returns q(1−q) at type log-odds a, q = σ(a), without
// cancellation.
func typeVar(a float64) float64 {
	e := math.Exp(-math.Abs(a))
	return e / ((1 + e) * (1 + e))
}

// BoundStep implements opt.StepBounder: when the (RA, Dec) part of step p
// moves further than maxPosStepPx pixels of the problem's pixel scale, it
// scales that part, in place and keeping its direction, to exactly that
// length. Every other coordinate stays as the trust region solved it. A step
// with a non-finite position part, or a problem without a pixel scale, is
// left alone.
func (s *Scratch) BoundStep(x, p []float64) bool {
	maxLen := maxPosStepPx * s.pb.PixScale
	ra, dec := p[model.ParamRA], p[model.ParamDec]
	n := math.Hypot(ra, dec)
	if !(maxLen > 0 && n > maxLen) || math.IsInf(n, 0) {
		return false
	}
	// The unit vector first: maxLen/n can underflow where ra/n cannot.
	p[model.ParamRA], p[model.ParamDec] = ra/n*maxLen, dec/n*maxLen
	return true
}

// AdjustTrial implements opt.TrialAdjuster. On a decided source it moves
// the trial's type log-odds to the end of its exponential tail (typeTail)
// in one step, and each of the likely type's log-variances to its
// mean-field optimum (varianceTail). g is the negated ELBO's gradient over
// the stored u = a/√2 (model.LogOddsScale), so ∂ELBO/∂a = −g_u/√2 and
// ∂ELBO/∂y = −g_y.
func (s *Scratch) AdjustTrial(x, g, trial []float64) bool {
	const iu, k = model.ParamTypeLogOdds, model.LogOddsScale
	a, aNewton := k*x[iu], k*trial[iu]
	moved := false
	if at := typeTail(a, aNewton, -g[iu]/k); at != aNewton {
		trial[iu] = at / k
		moved = true
	}
	t := 0 // the likely type
	if a > 0 {
		t = 1
	}
	for _, i := range [...]int{model.ParamR2 + t,
		model.ParamC2 + 4*t, model.ParamC2 + 4*t + 1, model.ParamC2 + 4*t + 2, model.ParamC2 + 4*t + 3} {
		if y := varianceTail(a, x[i], trial[i], -g[i]); y != trial[i] {
			trial[i] = y
			moved = true
		}
	}
	return moved
}

// varianceTail returns the log-variance y (r2 or a c2 of the likely type) a
// trial should take, given the type log-odds a and y at the iterate, the
// Newton trial's yNewton and the ELBO's derivative gy = ∂ELBO/∂y at the
// iterate. The type-weighted KL's entropy contributes exactly w/2 to gy, w =
// q_t + elbo.KLWeightFloor with q_t = σ(|a|) the likely type's probability,
// and the rest of the ELBO is close to linear in e^y, so gy ≈ w/2 − C·e^y,
// whose optimum is y* = y − log(1 − 2·gy/w): the mean-field update, as
// typeTail's a + ∂ELBO/∂q is for the type. Newton walks y down to it one
// unit step at a time. varianceTail takes y* only on a decided type
// (q(1−q) ≤ decrementTol) whose Newton step already lowers y, with gy < 0,
// and only when y* is finite and lies below Newton's point; otherwise it
// returns yNewton. An undecided type is left alone: there both types still
// share the data, and a move picks a brightness the Newton path never
// tested.
func varianceTail(a, y, yNewton, gy float64) float64 {
	if !(typeVar(a) <= decrementTol && yNewton < y && gy < 0) {
		return yNewton
	}
	w := 1/(1+math.Exp(-math.Abs(a))) + elbo.KLWeightFloor
	target := y - math.Log1p(-2*gy/w)
	if !(target < yNewton) || math.IsInf(target, 0) {
		return yNewton
	}
	return target
}

// typeTail returns the type log-odds a trial should take, given the
// iterate's log-odds a, the Newton trial's aNewton and the ELBO's derivative
// ga = ∂ELBO/∂a at the iterate. With q = ProbGal = σ(a), ∂ELBO/∂a =
// q(1−q)·∂ELBO/∂q, so once the type is decided (q(1−q) ≤ decrementTol)
// Newton walks the log-odds about one unit per iteration down an
// exponential tail, each step keeping 1/e of the gain left. For a data term
// linear in q the optimum is a + ∂ELBO/∂q, the mean-field update of a
// Bernoulli factor; typeTail takes it, but never past the log-odds where the
// type gain left, σ(−|a|)·|∂ELBO/∂q|, is decrementTol/100. It moves only an
// interior decided type whose Newton step already heads further out, and
// only when that target lies beyond Newton's own point; otherwise it
// returns aNewton.
func typeTail(a, aNewton, ga float64) float64 {
	side := math.Copysign(1, a)
	v := typeVar(a)
	if !(v > 0 && v <= decrementTol && side*(aNewton-a) > 0) {
		return aNewton
	}
	dq := ga / v
	if dq == 0 || math.IsNaN(dq) || math.IsInf(dq, 0) {
		return aNewton
	}
	// The cap's distance from 0: σ(−x)·|dq| = c·|dq| with c = tol/(100|dq|)
	// gives x = log((1 − c)/c), in logs so that no huge |dq| overflows.
	c := decrementTol / 100 / math.Abs(dq)
	if !(c < 1) {
		return aNewton
	}
	capAbs := math.Log1p(-c) + math.Log(math.Abs(dq)) - math.Log(decrementTol/100)
	target := a + dq
	if side*target > capAbs {
		target = side * capAbs
	}
	if !(side*target > side*aNewton) {
		return aNewton
	}
	return target
}

// FitWith maximizes the problem's ELBO from the given initialization with
// Newton trust region, the paper's method of choice ("converges reliably on
// our problem in tens of iterations", Section IV-D), evaluating and
// optimizing entirely inside s's buffers.
func FitWith(pb *elbo.Problem, init model.Params, o Options, s *Scratch) FitResult {
	o.defaults()
	if !pb.InBounds(&init) {
		// An infeasible start would put the whole domain barrier between
		// the iterate and the data; fail loudly instead of letting the
		// optimizer wander against +Inf walls.
		return FitResult{Params: init, Status: opt.StopOutsideDomain}
	}
	s.pb = pb
	s.visits = 0
	s.evalSec = 0
	// Intra-fit parallelism: objective evaluations fan their patch sweeps
	// out to this many workers. The fit's accounting (s.visits, s.evalSec)
	// stays exact and race-free regardless: per-patch visit counts are
	// summed from the partial accumulators inside elbo's fixed-order
	// reduction, and both counters are incremented only here on the fit
	// goroutine, after the fan-out barrier.
	s.es.SetWorkers(o.PatchWorkers)
	start := time.Now()

	res := opt.NewtonTRWS(s, init[:], s.ws, trOptions(o))
	s.pb = nil // release the problem for the GC between fits

	var out FitResult
	copy(out.Params[:], res.X)
	out.ELBO = -res.F
	out.Iters = res.Iters
	out.FullEvals = res.FullEvals
	out.Rejected = res.Rejected
	out.Visits = s.visits
	out.Converged = res.Converged
	out.Status = res.Status
	out.EvalSeconds = s.evalSec
	out.TotalSeconds = time.Since(start).Seconds()
	return out
}

// trOptions is the trust-region configuration of a fit under o (with
// defaults applied).
func trOptions(o Options) opt.TROptions {
	return opt.TROptions{
		MaxIter: o.MaxIter,
		GradTol: o.GradTol,
		// Parameters mix degree-scale positions with O(1) logits; a modest
		// initial radius keeps the first steps honest, and the cap keeps
		// trial points out of exp-overflow territory.
		InitRadius:   0.5,
		MaxRadius:    32,
		DecrementTol: decrementTol,
	}
}

// FitLBFGS is the ablation path: same objective, optimized with L-BFGS on
// the gradient tier (EvalGradInto), which skips every Hessian-bearing
// computation. The paper reports it needs up to 2000 iterations where Newton
// needs tens (Section IV-D); the ablation benchmark regenerates that
// comparison.
func FitLBFGS(pb *elbo.Problem, init model.Params, maxIter int) FitResult {
	if !pb.InBounds(&init) {
		return FitResult{Params: init, Status: opt.StopOutsideDomain}
	}
	var visits int64
	// One scratch and one gradient buffer for the whole run: opt.LBFGS reads
	// the returned gradient only until the next fg call, so the closure can
	// negate into the same slice every evaluation instead of allocating a
	// fresh one (which used to churn the GC for the ablation's up-to-2000
	// iterations).
	es := elbo.NewScratch()
	var g [model.ParamDim]float64
	fg := func(x []float64) (float64, []float64) {
		var p model.Params
		copy(p[:], x)
		if !pb.InBounds(&p) {
			return math.Inf(1), g[:]
		}
		r := pb.EvalGradInto(&p, es)
		visits += r.Visits
		for i := range g {
			g[i] = -r.Grad[i]
		}
		return -r.Value, g[:]
	}
	if maxIter == 0 {
		maxIter = 2000
	}
	res := opt.LBFGS(fg, init[:], opt.LBFGSOptions{MaxIter: maxIter, GradTol: 1e-6})

	var out FitResult
	copy(out.Params[:], res.X)
	out.ELBO = -res.F
	out.Iters = res.Iters
	out.GradEvals = res.GradEvals
	out.Visits = visits
	out.Converged = res.Converged
	out.Status = res.Status
	return out
}
