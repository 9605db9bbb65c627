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

// DefaultGradTol is the default infinity-norm gradient tolerance of a fit;
// core's cross-sweep tolerance ladder scales from it. A fit also stops, on
// every sweep, once its exact Newton step has less than decrementTol left to
// gain.
const DefaultGradTol = 1e-6

// decrementTol is the Newton-decrement stop of every fit, in nats of ELBO
// (opt.TROptions.DecrementTol). The gradient's infinity norm mixes
// per-degree positions (curvature ~1e11 deg⁻²) with O(1) logits, so on its
// own it keeps polishing positions long after the ELBO has stopped moving.
// At 1e-3 nats the iterate lies within √(2e-3) ≈ 0.045 of the quadratic
// model's optimum in the exact Hessian's norm.
const decrementTol = 1e-3

// Options configures a per-source fit.
type Options struct {
	MaxIter int // Newton iterations (default 60)

	// GradTol is the infinity-norm gradient tolerance (default 1e-6). The
	// fit stops on it or on the Newton decrement (decrementTol), whichever
	// comes first.
	GradTol float64

	// InitRadius overrides the initial trust radius (0 keeps the default
	// 0.5). Cross-sweep warm starts pass the previous sweep's converged
	// radius so a re-fit skips the radius walk-down.
	InitRadius float64

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
	if !(o.InitRadius > 0) {
		o.InitRadius = 0.5
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
	FullEvals int
	GradEvals int // gradient-tier evaluations (L-BFGS)
	ValEvals  int
	Visits    int64 // active pixel visits (FLOP accounting)
	Converged bool
	Status    string

	// FinalRadius is the trust radius at termination — the warm-start hint
	// core's cross-sweep cache feeds back into the next sweep's InitRadius.
	FinalRadius float64

	// Wall-clock attribution, for the Section VII-A per-thread breakdown:
	// time inside objective evaluations (value+derivatives) versus the
	// optimizer's own linear algebra and bookkeeping.
	EvalSeconds  float64
	TotalSeconds float64
}

// Scratch owns every buffer a fit needs — the ELBO evaluation scratch
// (including the row-sweep kernel's SoA lanes), the trust-region workspace,
// and the negated-gradient buffer — and doubles as the opt.Objective the
// optimizer calls. One Scratch serves one goroutine; after the first fit
// warms it, FitWith performs zero steady-state heap allocations, which is
// what lets a Cyclades worker sweep thousands of sources without touching
// the garbage collector.
type Scratch struct {
	es *elbo.Scratch
	ws *opt.Workspace
	g  []float64

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
		g:  make([]float64, model.ParamDim),
	}
}

// Full implements opt.Objective: the negated ELBO with gradient and Hessian
// (opt minimizes). The returned slices are scratch-owned and valid until the
// next call.
func (s *Scratch) Full(x []float64) (float64, []float64, *linalg.Mat) {
	copy(s.theta[:], x)
	t0 := time.Now()
	r := s.pb.EvalInto(&s.theta, s.es)
	s.evalSec += time.Since(t0).Seconds()
	s.visits += r.Visits
	for i := range s.g {
		s.g[i] = -r.Grad[i]
	}
	h := r.Hess
	for i := range h.Data {
		h.Data[i] = -h.Data[i]
	}
	return -r.Value, s.g, h
}

// Value implements opt.Objective: the negated ELBO value only. Trial points
// outside the problem's position domain evaluate to +Inf — beyond the patch
// window the likelihood gradient vanishes, and without the barrier a fit
// could wander out of its own pixel support and "converge" in empty sky
// (the trust region rejects the step and shrinks instead).
func (s *Scratch) Value(x []float64) float64 {
	copy(s.theta[:], x)
	if !s.pb.InBounds(&s.theta) {
		return math.Inf(1)
	}
	t0 := time.Now()
	v, vis := s.pb.EvalValueWith(&s.theta, s.es)
	s.evalSec += time.Since(t0).Seconds()
	s.visits += vis
	return -v
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
		return FitResult{Params: init, Status: "initial position outside the problem's domain"}
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
	out.ValEvals = res.ValEvals
	out.Visits = s.visits
	out.Converged = res.Converged
	out.Status = res.Status
	out.FinalRadius = res.Radius
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
		InitRadius:   o.InitRadius,
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
		return FitResult{Params: init, Status: "initial position outside the problem's domain"}
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
