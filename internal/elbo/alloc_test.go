package elbo_test

import (
	"testing"

	"celeste/internal/benchfix"
	"celeste/internal/elbo"
)

// TestEvalIntoZeroAllocSteadyState pins the tentpole guarantee: once a
// Scratch is warm, a full derivative evaluation — brightness moments, KL,
// per-patch evaluator builds, and the 44x44 Hessian assembly — performs zero
// heap allocations. At the seed this was ~3.7k allocations per evaluation.
func TestEvalIntoZeroAllocSteadyState(t *testing.T) {
	pb, init := benchfix.SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalInto(&init, s) // warm the arenas and component buffers

	if allocs := testing.AllocsPerRun(10, func() {
		pb.EvalInto(&init, s)
	}); allocs != 0 {
		t.Errorf("EvalInto allocates %v objects per run in steady state, want 0", allocs)
	}
}

// TestEvalGradIntoZeroAllocSteadyState pins the guarantee for the middle
// tier: a warm scratch makes a gradient-only evaluation allocation-free.
func TestEvalGradIntoZeroAllocSteadyState(t *testing.T) {
	pb, init := benchfix.SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalGradInto(&init, s)

	if allocs := testing.AllocsPerRun(10, func() {
		pb.EvalGradInto(&init, s)
	}); allocs != 0 {
		t.Errorf("EvalGradInto allocates %v objects per run in steady state, want 0", allocs)
	}
}

// TestEvalValueWithZeroAllocSteadyState pins the same guarantee for the
// value-only path the trust-region ratio test calls.
func TestEvalValueWithZeroAllocSteadyState(t *testing.T) {
	pb, init := benchfix.SingleSourceScene(11)
	s := elbo.NewScratch()
	pb.EvalValueWith(&init, s)

	if allocs := testing.AllocsPerRun(10, func() {
		pb.EvalValueWith(&init, s)
	}); allocs != 0 {
		t.Errorf("EvalValueWith allocates %v objects per run in steady state, want 0", allocs)
	}
}
