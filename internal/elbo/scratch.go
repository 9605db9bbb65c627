package elbo

import (
	"celeste/internal/linalg"
	"celeste/internal/model"
)

// Scratch owns every buffer one objective evaluation needs: the Result
// (with its 44x44 Hessian), the 28x28 active-block accumulator, the
// closed-form flux moments and KL with their derivatives, the per-worker sweep
// states (spatial dual evaluator, SoA row lanes, value-path mixture
// buffers), and the per-patch partial accumulators the fixed-order reduction
// consumes. One Scratch serves one goroutine — with SetWorkers(n > 1) the
// scratch additionally owns n-1 persistent sweep goroutines, but they only
// run inside an evaluation the owning goroutine started. After the first
// evaluation warms it, EvalInto and EvalValueWith perform zero heap
// allocations. A Cyclades worker owns one Scratch for its whole sweep.
type Scratch struct {
	res        Result
	gres       GradResult  // gradient-tier result (EvalGradInto)
	activeHess *linalg.Mat // activeDim x activeDim, lower triangle

	// The flux moments and the KL with their derivatives, as the last
	// computeBrightMoments and computeKL left them.
	bm    brightMoments
	klOut klResult

	// Patch fan-out state (see parallel.go): one sweep state per worker
	// (slot 0 is the owning goroutine), the per-patch partial accumulators,
	// the persistent crew, and the per-evaluation job header.
	states []*sweepState
	parts  []patchPartial
	crew   *evalCrew
	job    parJob
}

// NewScratch returns a Scratch ready for evaluations of any Problem.
func NewScratch() *Scratch {
	return &Scratch{
		res:        Result{Hess: linalg.NewMat(model.ParamDim, model.ParamDim)},
		activeHess: linalg.NewMat(activeDim, activeDim),
		states:     []*sweepState{newSweepState()},
	}
}

// reset prepares the scratch for a fresh derivative evaluation.
func (s *Scratch) reset() {
	s.res.Value = 0
	s.res.Visits = 0
	for i := range s.res.Grad {
		s.res.Grad[i] = 0
	}
	s.res.Hess.Zero()
	s.activeHess.Zero()
}
