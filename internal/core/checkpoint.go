// Checkpoint/resume support for the distributed runtime. A run's durable
// state is tiny compared to its inputs: the live PGAS parameter array, the
// frozen stage-input array, and a per-task completion bitmap. Everything
// else (the survey, the task partition, the priors) is regenerated
// deterministically from the inputs, and RunHash pins those inputs so a
// checkpoint can refuse to resume against a different run.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/survey"
)

// ErrAborted is returned by RunWithOptions when a checkpoint hook asked the
// run to stop. The returned RunResult holds the partial state; the captured
// Checkpoint resumes it.
var ErrAborted = errors.New("core: run aborted by checkpoint hook")

// Checkpoint is a resumable cut of a distributed run, captured at a task
// boundary. Resuming from it and running to completion produces a catalog
// byte-identical to the uninterrupted run, because tasks read their inputs
// from the frozen StageStart array: a task's output depends only on the
// stage input, never on how far its contemporaries had gotten.
type Checkpoint struct {
	// Hash identifies the run inputs (survey, catalog, tasks, config) that
	// produced this state; resume refuses a mismatch.
	Hash uint64

	// Stage is the partition stage being executed when the cut was taken.
	Stage int

	// Done marks completed tasks, indexed like the task slice.
	Done []bool

	// Cur is the live parameter array (holds every completed task's output).
	Cur *pgas.Snapshot

	// StageStart is the frozen input array for the current stage; restarted
	// tasks re-read it so re-execution is idempotent.
	StageStart *pgas.Snapshot

	// Carried work counters, so a resumed run reports cumulative totals.
	Stats          Stats
	TasksProcessed int
	PGASLocal      int64
	PGASRemote     int64
	PGASBytes      int64
}

// Validate checks structural consistency after deserialization.
func (ck *Checkpoint) Validate() error {
	if ck.Cur == nil || ck.StageStart == nil {
		return errors.New("core: checkpoint missing a parameter snapshot")
	}
	if err := ck.Cur.Validate(); err != nil {
		return err
	}
	if err := ck.StageStart.Validate(); err != nil {
		return err
	}
	if ck.Cur.N != ck.StageStart.N || ck.Cur.Width != ck.StageStart.Width {
		return fmt.Errorf("core: checkpoint arrays disagree: %dx%d vs %dx%d",
			ck.Cur.N, ck.Cur.Width, ck.StageStart.N, ck.StageStart.Width)
	}
	if ck.Stage != 0 && ck.Stage != 1 {
		return fmt.Errorf("core: checkpoint stage %d out of range", ck.Stage)
	}
	return nil
}

// numericsRevision names the arithmetic this build computes a catalog with.
// RunHash folds it in, so a checkpoint written by, or a worker running, a
// build whose catalog bytes differ by design is refused instead of mixing two
// arithmetics into one catalog. Bump it with every change that moves catalog
// bytes on purpose. 1: closed-form KL and flux-moment derivatives (the
// revision the hash first carried). 2: the row sweeps carry each Gaussian
// component's exponential from row to row and split it into two chains
// along the row (internal/mog, egen.go). 3: the color-prior responsibilities
// are profiled out of the fitted vector in closed form (ParamDim 44 → 28,
// internal/elbo, moments.go), and the Newton-decrement stop extrapolates the
// remaining gain on an exponential tail (internal/opt). 4: the trust region
// judges each trial by the full tier's value, which becomes the iterate's on
// acceptance, instead of by the value tier's (internal/opt, NewtonTRWS).
const numericsRevision = 4

// RunHash fingerprints everything that determines a run's output: the build's
// numerics revision, the survey (config and pixel data), the initialization
// catalog, the task partition, and the numerically relevant config fields.
// Threads, PatchThreads, and Processes are deliberately excluded — the
// stage-frozen read discipline makes the result independent of the
// source-level split, the fixed-order partial reduction makes per-fit
// evaluations bitwise independent of the patch-level split, and a checkpoint
// may legally resume at a different {threads, patch threads, procs} than it
// was taken at.
func RunHash(sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task, cfg Config) uint64 {
	return runHash(sv, catalog, tasks, cfg, numericsRevision)
}

// runHash is RunHash at a given numerics revision.
func runHash(sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task, cfg Config, revision int) uint64 {
	cfg.defaults()
	h := fnv.New64a()
	wU64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wInt := func(v int) { wU64(uint64(int64(v))) }
	wF64 := func(v float64) { wU64(math.Float64bits(v)) }
	wBox := func(b geom.Box) { wF64(b.MinRA); wF64(b.MinDec); wF64(b.MaxRA); wF64(b.MaxDec) }

	wInt(revision)
	c := &sv.Config
	wU64(c.Seed)
	wBox(c.Region)
	wF64(c.PixScale)
	wInt(c.FieldW)
	wInt(c.FieldH)
	wInt(c.Runs)
	wBox(c.DeepRegion)
	wInt(c.DeepRuns)
	wF64(c.SourceDensity)

	wInt(len(sv.Images))
	for _, im := range sv.Images {
		wInt(im.ID)
		wInt(im.Run)
		wInt(im.Field)
		wInt(im.Band)
		wInt(im.W)
		wInt(im.H)
		wF64(im.Iota)
		wF64(im.Sky)
		for _, px := range im.Pixels {
			wF64(px)
		}
	}

	wInt(len(catalog))
	for i := range catalog {
		e := &catalog[i]
		wInt(e.ID)
		wF64(e.Pos.RA)
		wF64(e.Pos.Dec)
		wF64(e.ProbGal)
		for _, f := range e.Flux {
			wF64(f)
		}
		wF64(e.GalDevFrac)
		wF64(e.GalAxisRatio)
		wF64(e.GalAngle)
		wF64(e.GalScale)
	}

	wInt(len(tasks))
	for i := range tasks {
		t := &tasks[i]
		wInt(t.ID)
		wInt(t.Stage)
		wBox(t.Box)
		wInt(len(t.Sources))
		for _, s := range t.Sources {
			wInt(s)
		}
	}

	wInt(cfg.Rounds)
	wU64(cfg.Seed)
	wInt(cfg.Fit.MaxIter)
	wF64(cfg.Fit.GradTol)
	// The ablation knob changes the optimization trajectory, so a checkpoint
	// taken under one setting must not resume under another. The wire
	// protocol does not carry it (RunWithOptions rejects it with a
	// Transport); hashing it keeps the default-config worker handshake
	// unchanged.
	if cfg.ColdSweeps {
		wInt(1)
	} else {
		wInt(0)
	}
	return h.Sum64()
}
