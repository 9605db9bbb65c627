// Package celeste is a Go reproduction of "Cataloging the Visible Universe
// through Bayesian Inference at Petascale" (Regier et al., IPPS 2018): a
// variational-inference system that turns wide-field astronomical survey
// images into a Bayesian catalog of stars and galaxies, together with the
// distributed-optimization machinery (Dtree scheduling, PGAS parameter
// state, Cyclades conflict-free threading) and a discrete-event simulator of
// the paper's Cori Phase II runs.
//
// This package is the public facade. The typical flow:
//
//	cfg := celeste.DefaultSurveyConfig(1)
//	sv := celeste.GenerateSurvey(cfg)         // synthetic SDSS stand-in
//	init := sv.NoisyCatalog(2)                // the "preexisting catalog"
//	res := celeste.Infer(sv, init, celeste.InferConfig{})
//	rows := celeste.CompareToTruth(sv, photoCat, res.Catalog)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package celeste

import (
	"errors"
	"fmt"

	"celeste/internal/catserve"
	"celeste/internal/cluster"
	"celeste/internal/core"
	"celeste/internal/dtree"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/photo"
	"celeste/internal/survey"
	"celeste/internal/validate"
	"celeste/internal/vi"
)

// Re-exported core types. The aliases keep example and downstream code free
// of internal import paths while the implementation stays internal.
type (
	// CatalogEntry is one light source: position, type probability, fluxes,
	// galaxy shape, and (for Bayesian catalogs) posterior uncertainties.
	CatalogEntry = model.CatalogEntry
	// Params is the unconstrained 44-parameter variational state of one
	// source.
	Params = model.Params
	// Priors holds the model's prior distributions (Φ, Υ, Ξ).
	Priors = model.Priors
	// Survey is a synthetic multi-band, multi-epoch imaging survey.
	Survey = survey.Survey
	// SurveyConfig controls survey synthesis.
	SurveyConfig = survey.Config
	// Image is one band of one field of one run.
	Image = survey.Image
	// SkyBox is an axis-aligned region of sky in degrees.
	SkyBox = geom.Box
	// SkyPos is a sky position in degrees.
	SkyPos = geom.Pt2
	// Task is one unit of distributed work (a sky region).
	Task = partition.Task
	// Row is one line of a Table II-style accuracy comparison.
	Row = validate.Row
	// Machine describes simulated cluster hardware.
	Machine = cluster.Machine
	// Workload describes a simulated task population.
	Workload = cluster.Workload
	// SimResult is one simulated cluster run.
	SimResult = cluster.Result
	// Checkpoint is a resumable cut of a distributed run, captured at a task
	// boundary; resuming it yields a catalog byte-identical to the
	// uninterrupted run.
	Checkpoint = core.Checkpoint
	// FaultPlan schedules rank kills and stalls for fault-injected runs,
	// honored identically by in-process ranks and the cluster simulator.
	FaultPlan = dtree.FaultPlan
	// Fault is one scheduled rank failure or slowdown.
	Fault = dtree.Fault
	// Transport selects the TCP runtime for InferWithOptions: real worker
	// processes connect to its Listener, pull Dtree tasks, fetch frozen
	// stage input, and write results over the length-prefixed wire protocol.
	// The catalog is byte-identical to a run with in-process ranks.
	Transport = cnet.Transport
	// WorkerOptions configures one TCP worker process (see RunWorker).
	WorkerOptions = core.WorkerOptions
	// Backoff is a deterministic capped jittered exponential delay schedule,
	// used for worker re-enrollment (WorkerOptions.RejoinBackoff) and
	// coordinator restarts (SuperviseOptions.Backoff).
	Backoff = core.Backoff
	// SuperviseOptions configures Supervise.
	SuperviseOptions = core.SuperviseOptions
	// CatalogStore is the catalog-as-a-service index: a quadtree over
	// (ra, dec) holding posterior summaries behind an RCU snapshot, fed
	// incrementally by a running inference (InferOptions.Catalog) or built
	// once from a finished catalog (NewCatalogStore).
	CatalogStore = catserve.Store
	// CatalogSnapshot is one immutable version of a CatalogStore, answering
	// cone / box / brightest-N queries without locking.
	CatalogSnapshot = catserve.Snapshot
	// CatalogServer serves a CatalogStore over HTTP with a per-snapshot
	// response cache.
	CatalogServer = catserve.Server
	// CatalogOptions tunes catalog index construction and caching.
	CatalogOptions = catserve.Options
)

// ErrRunAborted wraps the error returned when a checkpoint hook stops a run.
var ErrRunAborted = core.ErrAborted

// DefaultSurveyConfig returns a small but fully featured survey
// configuration (multi-epoch coverage plus a deep Stripe 82-like strip).
func DefaultSurveyConfig(seed uint64) SurveyConfig {
	return survey.DefaultConfig(seed)
}

// GenerateSurvey synthesizes a survey from the generative model.
func GenerateSurvey(cfg SurveyConfig) *Survey { return survey.Generate(cfg) }

// DefaultPriors returns hand-set SDSS-like priors.
func DefaultPriors() Priors { return model.DefaultPriors() }

// FitPriors learns priors from an existing catalog (the paper's
// preprocessing step).
func FitPriors(entries []CatalogEntry) Priors { return model.FitPriors(entries) }

// InferConfig controls the full distributed inference pipeline.
type InferConfig struct {
	// TargetWork is the per-task work target for sky partitioning
	// (estimated active pixel visits); 0 selects a size that yields a
	// handful of tasks for small surveys.
	TargetWork float64
	// Threads per simulated process (Cyclades workers).
	Threads int
	// PatchThreads is the intra-fit patch-sweep worker count per thread
	// (0 derives it from spare cores; see core.Config.PatchThreads).
	// Bitwise-neutral like Threads: it never changes the catalog bytes.
	PatchThreads int
	// Processes simulated for Dtree/PGAS distribution.
	Processes int
	// Rounds of block coordinate ascent per task.
	Rounds int
	// MaxIter bounds per-source Newton iterations.
	MaxIter int
	Seed    uint64

	// ColdSweeps disables the cross-sweep warm starts, an ablation and
	// reference knob; TestWarmStartCatalogDelta bounds the catalog
	// difference it introduces.
	ColdSweeps bool
}

// InferResult is the outcome of Infer.
type InferResult struct {
	// Catalog holds the fitted Bayesian catalog with uncertainties, index-
	// aligned with the initialization catalog.
	Catalog []CatalogEntry
	// Tasks is the generated two-stage partition.
	Tasks []Task
	// Fits, NewtonIters, and Visits aggregate the optimization work
	// (Visits drives FLOP accounting, Section VI-B).
	Fits, NewtonIters, Visits int64
	// TasksProcessed counts scheduled task executions.
	TasksProcessed int
	// FailedRanks and RequeuedTasks record injected-fault recovery.
	FailedRanks, RequeuedTasks int
	// JoinedRanks counts ranks minted past the static complement (TCP runs
	// only: workers admitted once every static rank was taken or the connect
	// grace had sealed them); StolenTasks counts tasks an idle rank pulled out
	// of another rank's pool, on any run.
	JoinedRanks, StolenTasks int
}

// InferOptions controls fault tolerance for InferWithOptions.
type InferOptions struct {
	// CheckpointEvery fires OnCheckpoint after every that-many completed
	// tasks (0 disables checkpointing).
	CheckpointEvery int
	// OnCheckpoint receives each captured checkpoint (typically to persist
	// with imageio.SaveCheckpoint). A non-nil error aborts the run;
	// InferWithOptions then returns an error wrapping ErrRunAborted.
	OnCheckpoint func(*Checkpoint) error
	// Resume restores a prior run's checkpoint; the run's inputs must hash
	// identically, but Threads and Processes may differ.
	Resume *Checkpoint
	// Faults injects rank kills and stalls into in-process ranks only; a run
	// with a Transport refuses it (fault a TCP run by killing real worker
	// processes).
	Faults *FaultPlan
	// Transport, when non-nil, makes the run's ranks cfg.Processes worker
	// processes (each started with RunWorker or `celeste -worker`) reaching
	// the coordinator over TCP, instead of goroutines in this process.
	Transport *Transport

	// Catalog, when non-nil, receives the run's posterior summaries as they
	// commit: every CatalogEvery task completions the touched sources are
	// re-summarized from the live parameter array and folded into the store,
	// and at run completion the store is brought byte-identical to the
	// returned catalog. Queries against the store (directly or through a
	// CatalogServer) run concurrently with the fit, lock-free.
	Catalog *CatalogStore
	// CatalogEvery batches task commits per catalog update (0 inherits
	// CheckpointEvery, else every commit updates).
	CatalogEvery int
}

// Infer runs the full pipeline on a survey: two-stage sky partition from the
// initialization catalog, Dtree-scheduled region tasks over simulated
// processes, Cyclades-parallel joint optimization within each region, PGAS
// parameter state, and a final catalog with posterior uncertainties.
func Infer(sv *Survey, initCatalog []CatalogEntry, cfg InferConfig) *InferResult {
	res, err := InferWithOptions(sv, initCatalog, cfg, InferOptions{})
	if err != nil {
		// Impossible without checkpoint hooks, faults, or a resume state.
		panic(err)
	}
	return res
}

// InferWithOptions is the resumable entry point: Infer plus periodic
// checkpoint capture, resumption from a checkpoint, and fault injection.
// The task partition is regenerated deterministically from the inputs, so a
// resumed run only needs the survey, the same initialization catalog, and
// the checkpoint.
func InferWithOptions(sv *Survey, initCatalog []CatalogEntry, cfg InferConfig,
	opts InferOptions) (*InferResult, error) {

	tw := cfg.TargetWork
	if tw == 0 {
		tw = 2e6
	}
	tasks := partition.GenerateTwoStage(initCatalog, sv.Config.Region, partition.Options{
		TargetWork: tw,
	})
	if opts.Transport != nil && opts.Transport.TargetWork == 0 {
		// Advertise the resolved partition knob so workers regenerate the
		// identical task list. Copy first: the caller's struct is theirs.
		t := *opts.Transport
		t.TargetWork = tw
		opts.Transport = &t
	}
	runOpts := core.RunOptions{
		CheckpointEvery: opts.CheckpointEvery,
		OnCheckpoint:    opts.OnCheckpoint,
		Resume:          opts.Resume,
		Faults:          opts.Faults,
		Transport:       opts.Transport,
	}
	if opts.Catalog != nil {
		store := opts.Catalog
		runOpts.OnCatalog = store.Apply
		runOpts.CatalogEvery = opts.CatalogEvery
	}
	run, err := core.RunWithOptions(sv, initCatalog, tasks, core.Config{
		Threads:      cfg.Threads,
		PatchThreads: cfg.PatchThreads,
		Rounds:       cfg.Rounds,
		Processes:    cfg.Processes,
		Seed:         cfg.Seed,
		Fit:          vi.Options{MaxIter: cfg.MaxIter},
		ColdSweeps:   cfg.ColdSweeps,
	}, runOpts)
	if run == nil {
		return nil, err
	}
	return &InferResult{
		Catalog:        run.Catalog,
		Tasks:          tasks,
		Fits:           run.Stats.Fits,
		NewtonIters:    run.Stats.NewtonIters,
		Visits:         run.Stats.Visits,
		TasksProcessed: run.TasksProcessed,
		FailedRanks:    run.FailedRanks,
		RequeuedTasks:  run.RequeuedTasks,
		JoinedRanks:    run.JoinedRanks,
		StolenTasks:    run.StolenTasks,
	}, err
}

// NewCatalogStore builds the spatial catalog index over a footprint. The
// entries seed the index (pass the initialization catalog to serve a live
// run through InferOptions.Catalog, or a finished catalog to serve a static
// file); source i of every later update must refer to entries[i].
func NewCatalogStore(bounds SkyBox, entries []CatalogEntry, opts CatalogOptions) *CatalogStore {
	return catserve.NewStore(bounds, entries, opts)
}

// NewCatalogServer wraps a catalog store in the HTTP query layer
// (cone / box / brightest-N / stats endpoints with per-snapshot caching).
func NewCatalogServer(store *CatalogStore) *CatalogServer {
	return catserve.NewServer(store)
}

// Supervise runs a coordinator incarnation repeatedly until it succeeds,
// returns a permanent error, or exhausts the restart budget. Transient
// crashes (by default anything except a checkpoint-hook abort) are retried
// after a backoff; `celeste -supervise` builds its coordinator-failover loop
// on this, classifying a child's signal death as transient and a clean
// non-zero exit as permanent.
func Supervise(run func(incarnation int) error, opts SuperviseOptions) error {
	return core.Supervise(run, opts)
}

// RunWorker joins a TCP run as one worker process: it connects to the
// coordinator at addr, reconstructs the run deterministically from the
// shared inputs (the coordinator must be running InferWithOptions with a
// Transport over the same survey and initialization catalog — the run-hash
// handshake refuses anything else), and processes tasks until the run ends.
// Worker-local knobs like Threads do not affect the catalog bytes.
func RunWorker(addr string, sv *Survey, initCatalog []CatalogEntry, opts WorkerOptions) error {
	return core.RunWorker(addr, sv, initCatalog, opts)
}

// FitSource fits a single light source against a set of images, returning
// the refined catalog entry with posterior uncertainties, the ELBO achieved,
// and the Newton iteration count. It is the library entry point for
// laptop-scale use (one source, a few frames). It fails when there is no
// pixel to fit — no images, or none whose footprint reaches init.Pos —
// because the optimum of the remaining objective is the prior, not a
// posterior.
func FitSource(images []*Image, priors *Priors, init CatalogEntry,
	maxIter int) (CatalogEntry, float64, int, error) {

	if len(images) == 0 {
		return CatalogEntry{}, 0, 0, errors.New("celeste: FitSource needs at least one image")
	}
	radius := core.InfluenceRadiusPx(&init, images[0].WCS.PixScale())
	pb := new(elbo.Builder).Build(priors, images, init.Pos, radius)
	if len(pb.Patches) == 0 {
		return CatalogEntry{}, 0, 0, fmt.Errorf(
			"celeste: FitSource: none of the %d images covers the source position (ra %g, dec %g)",
			len(images), init.Pos.RA, init.Pos.Dec)
	}
	res := vi.FitWith(pb, model.InitialParams(&init), vi.Options{MaxIter: maxIter}, vi.NewScratch())
	c := res.Params.Constrained()
	return model.Summarize(init.ID, &c), res.ELBO, res.Iters, nil
}

// RunPhoto runs the heuristic baseline pipeline (the Table II comparator) on
// a set of images, typically one run's imagery.
func RunPhoto(images []*Image) []CatalogEntry {
	return photo.Run(images, photo.Config{})
}

// CompareToTruth scores two catalogs against the survey's ground truth and
// returns the Table II rows (Photo column first, Celeste column second).
func CompareToTruth(sv *Survey, photoCat, celesteCat []CatalogEntry) []Row {
	const matchRadiusPx = 4
	ps := validate.Score(sv.Truth, photoCat, sv.Config.PixScale, matchRadiusPx)
	cs := validate.Score(sv.Truth, celesteCat, sv.Config.PixScale, matchRadiusPx)
	return validate.Table(ps, cs)
}

// FormatComparison renders comparison rows in the paper's Table II layout.
func FormatComparison(rows []Row) string { return validate.Format(rows) }

// DefaultMachine returns the Cori Phase II hardware model at the given node
// count.
func DefaultMachine(nodes int) Machine { return cluster.DefaultMachine(nodes) }

// DefaultWorkload returns a paper-like task population.
func DefaultWorkload(tasks int) Workload { return cluster.DefaultWorkload(tasks) }

// SimulateCluster runs the discrete-event cluster simulation.
func SimulateCluster(m Machine, w Workload, synchronizedStart bool) *SimResult {
	return cluster.Simulate(m, w, synchronizedStart)
}

// WeakScaling reproduces the Figure 4 experiment (68 tasks per node).
func WeakScaling(nodeCounts []int, seed uint64) []*SimResult {
	return cluster.WeakScaling(nodeCounts, seed)
}

// StrongScaling reproduces the Figure 5 experiment (557,056 tasks total).
func StrongScaling(nodeCounts []int, seed uint64) []*SimResult {
	return cluster.StrongScaling(nodeCounts, seed)
}
