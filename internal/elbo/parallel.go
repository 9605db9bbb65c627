package elbo

import (
	"runtime"
	"sync"
	"sync/atomic"

	"celeste/internal/linalg"
	"celeste/internal/model"
	"celeste/internal/mog"
	"celeste/internal/sliceutil"
)

// This file implements intra-evaluation parallelism: one objective
// evaluation fans its per-patch row sweeps out to a small pool of persistent
// workers. Determinism comes from the accumulator structure, not from the
// schedule: every patch is swept into its own partial accumulator (value,
// visits, active-block gradient, and — on the full tier — the active-block
// Hessian; the per-component moments behind the spatial blocks live in the
// sweeping worker's own state and are assembled into the partial before the
// patch completes), and the partials are reduced in fixed patch order
// afterwards.
// Patch-to-worker assignment is a nondeterministic atomic claim, but since a
// partial's contents depend only on its patch and the (read-only) shared
// inputs, and the reduction order is fixed, the result is bitwise identical
// at every worker count. The serial path is the same machinery with one
// worker claiming every patch, so serial == parallel holds by construction
// rather than by a pair of carefully-matched loops.

// maxPatchWorkers bounds SetWorkers: patch counts per problem are small
// (one per overlapping image x band), so more workers than this only adds
// wake-up latency.
const maxPatchWorkers = 64

// patchPartial is one patch's partial accumulator. hess is allocated lazily
// on the first full-tier evaluation and holds the activeDim x activeDim
// lower triangle; the gradient and value tiers leave it untouched.
type patchPartial struct {
	value  float64
	visits int64
	grad   [activeDim]float64
	hess   *linalg.Mat
}

// sweepState owns the per-worker buffers one patch sweep needs: the spatial
// dual evaluator (rebuilt per patch — it depends on the patch's PSF and
// WCS), the SoA row lanes (pooled in mog so churned workers reuse warm
// slabs), the per-component moment accumulators of the derivative tiers, the
// row x-offsets and moment-pass weights, and the value-path mixture buffers.
// Worker slot 0 belongs to the calling goroutine; the serial paths run
// entirely on it.
type sweepState struct {
	ev     mog.Evaluator
	lanes  *mog.RowLanes
	mom    mog.Moments
	dxs    []float64
	omS    []float64 // moment-pass weight of the star density, per pixel
	omG    []float64 // ... of the galaxy density
	comb   []mog.ProfComp
	galMix mog.Mixture
	starV  []mog.ValueComp
	galV   []mog.ValueComp
	rowS   []float64
	rowG   []float64
}

func newSweepState() *sweepState {
	return &sweepState{lanes: mog.GetRowLanes()}
}

// release returns the pooled lane slabs; the state must not sweep again.
func (w *sweepState) release() {
	mog.PutRowLanes(w.lanes)
	w.lanes = nil
}

// buildEvaluator (re)builds the worker's spatial dual evaluator for one
// patch at the current shape parameters, reusing its component storage.
func (w *sweepState) buildEvaluator(theta *model.Params, p *Patch) *mog.Evaluator {
	w.ev.Build(p.PSF, expProf, devProf,
		theta[model.ParamGalDevLogit], theta[model.ParamGalABLogit],
		theta[model.ParamGalAngle], theta[model.ParamGalLogScale],
		model.JacFromWCS(p.WCS))
	return &w.ev
}

// buildEvaluatorGrad is buildEvaluator to first order, for the gradient
// tier.
func (w *sweepState) buildEvaluatorGrad(theta *model.Params, p *Patch) *mog.Evaluator {
	w.ev.BuildGrad(p.PSF, expProf, devProf,
		theta[model.ParamGalDevLogit], theta[model.ParamGalABLogit],
		theta[model.ParamGalAngle], theta[model.ParamGalLogScale],
		model.JacFromWCS(p.WCS))
	return &w.ev
}

// sizeRow prepares the worker's row buffers for a derivative-tier sweep of
// width n starting at pixel column x0: the lanes, the x-offsets from the
// source centre, and the moment-pass weight rows.
func (w *sweepState) sizeRow(n, x0 int, srcX float64) (dxs, omS, omG []float64) {
	w.lanes.Resize(n)
	w.dxs = sliceutil.Grow(w.dxs, n)
	w.omS = sliceutil.Grow(w.omS, n)
	w.omG = sliceutil.Grow(w.omG, n)
	for i := range w.dxs {
		w.dxs[i] = float64(x0+i) - srcX
	}
	return w.dxs, w.omS, w.omG
}

// galaxyMixtureInto builds the value-path galaxy appearance mixture for one
// patch into the worker's buffers (see galaxyMixtureFor).
func (w *sweepState) galaxyMixtureInto(c *model.Constrained, p *Patch) mog.Mixture {
	w.comb = appendProfileBlend(w.comb[:0], c.GalDevFrac)
	w.galMix = mog.GalaxyMixtureInto(w.galMix[:0], p.PSF, w.comb,
		clampAB(c.GalAxisRatio), c.GalAngle, clampScale(c.GalScale),
		model.JacFromWCS(p.WCS))
	return w.galMix
}

// evalTier selects which per-patch sweep a fan-out runs.
type evalTier int32

const (
	tierFull evalTier = iota
	tierGrad
	tierValue
)

// parJob is the shared state of one fan-out: the read-only inputs (problem,
// parameters, brightness moments, and the value tier's constrained
// parameters), the partial slots, the atomic next-patch claim counter, and
// the completion barrier. It lives inside a Scratch so dispatch allocates
// nothing; the input pointers are cleared when the fan-out completes.
type parJob struct {
	pb     *Problem
	theta  *model.Params
	bm     *brightMoments
	c      model.Constrained
	tier   evalTier
	parts  []patchPartial
	states []*sweepState
	next   atomic.Int64
	wg     sync.WaitGroup
}

// run claims patches until none remain, sweeping each into its partial with
// the worker's own buffers. slot indexes the per-worker sweep state; slot 0
// is the calling goroutine.
func (j *parJob) run(slot int) {
	w := j.states[slot]
	for {
		i := int(j.next.Add(1)) - 1
		if i >= len(j.parts) {
			return
		}
		p := j.pb.Patches[i]
		out := &j.parts[i]
		switch j.tier {
		case tierFull:
			j.pb.evalPatchFull(j.theta, j.bm, p, w, out)
		case tierGrad:
			j.pb.evalPatchGrad(j.theta, j.bm, p, w, out)
		default:
			j.pb.evalPatchValue(j.theta, &j.c, j.bm, p, w, out)
		}
	}
}

// crewTask wakes one crew goroutine for one fan-out.
type crewTask struct {
	job  *parJob
	slot int
}

// evalCrew is a Scratch's set of persistent worker goroutines, woken by
// buffered channel sends (a struct send — no per-evaluation allocation, the
// reason these are not `go func` spawns). The goroutines reference only the
// channel, never the Scratch, so the Scratch stays collectible; its cleanup
// closes the channel and the goroutines exit.
type evalCrew struct {
	work chan crewTask
	stop sync.Once
}

func (c *evalCrew) close() {
	c.stop.Do(func() { close(c.work) })
}

func crewLoop(work chan crewTask) {
	for t := range work {
		t.job.run(t.slot)
		t.job.wg.Done()
	}
}

// SetWorkers sets the number of patch-sweep workers (including the calling
// goroutine) subsequent evaluations with this scratch fan out to. n is
// clamped to [1, 64]; 1 (the NewScratch default) keeps evaluation entirely
// on the caller. The parallel result is bitwise identical to the serial one
// at any n, so this is purely a throughput knob. Must not be called
// concurrently with an evaluation on the same scratch (a Scratch serves one
// goroutine, as ever).
func (s *Scratch) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > maxPatchWorkers {
		n = maxPatchWorkers
	}
	if n == len(s.states) {
		return
	}
	if s.crew != nil {
		s.crew.close()
		s.crew = nil
	}
	for _, w := range s.states[1:] {
		w.release()
	}
	s.states = s.states[:1]
	for len(s.states) < n {
		s.states = append(s.states, newSweepState())
	}
	if n > 1 {
		s.crew = &evalCrew{work: make(chan crewTask, n-1)}
		for i := 0; i < n-1; i++ {
			go crewLoop(s.crew.work)
		}
		runtime.AddCleanup(s, func(c *evalCrew) { c.close() }, s.crew)
	}
}

// Workers reports the current worker count (>= 1).
func (s *Scratch) Workers() int { return len(s.states) }

// ensureParts sizes the partial slots for n patches, preserving previously
// allocated Hessian blocks, and allocates any missing Hessians when the full
// tier needs them. Steady state (patch count at or below the high-water
// mark) allocates nothing.
func (s *Scratch) ensureParts(n int, needHess bool) {
	if len(s.parts) < n {
		parts := make([]patchPartial, n)
		copy(parts, s.parts)
		s.parts = parts
	}
	if needHess {
		for i := 0; i < n; i++ {
			if s.parts[i].hess == nil {
				s.parts[i].hess = linalg.NewMat(activeDim, activeDim)
			}
		}
	}
}

// runPatches fans the per-patch sweeps of one evaluation out to the crew
// (value tier callers fill s.job.c first). The caller participates as
// worker slot 0, so a single-worker scratch — or a problem with one patch —
// runs the identical code path inline with no synchronization. On return
// every partial in s.parts[:len(pb.Patches)] is complete.
func (s *Scratch) runPatches(pb *Problem, theta *model.Params, bm *brightMoments, tier evalTier) {
	n := len(pb.Patches)
	s.ensureParts(n, tier == tierFull)
	j := &s.job
	j.pb, j.theta, j.bm, j.tier = pb, theta, bm, tier
	j.parts = s.parts[:n]
	j.states = s.states
	j.next.Store(0)
	nw := len(s.states)
	if nw > n {
		nw = n
	}
	if nw > 1 {
		j.wg.Add(nw - 1)
		for k := 1; k < nw; k++ {
			s.crew.work <- crewTask{job: j, slot: k}
		}
	}
	j.run(0)
	if nw > 1 {
		j.wg.Wait()
	}
	j.pb, j.theta, j.bm = nil, nil, nil
	j.parts, j.states = nil, nil
}
