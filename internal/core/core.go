// Package core implements Celeste's joint inference — the paper's primary
// contribution. A node-level task jointly optimizes the light sources of one
// sky region by block coordinate ascent: each step fits one source's
// model.ParamDim-parameter block to tolerance (internal/vi) with every
// overlapping source's light folded into the background. Threads parallelize the sweep
// with Cyclades conflict-free batches, so concurrent updates never touch
// overlapping sources (Section IV-D). Across tasks, the distributed driver
// (RunWithOptions) schedules regions with Dtree, keeps the global parameter
// state in a PGAS array, and runs a second stage of shifted regions so
// boundary sources also converge (Section IV-A).
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"celeste/internal/cyclades"
	"celeste/internal/elbo"
	"celeste/internal/geom"
	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/rng"
	"celeste/internal/sliceutil"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// Config controls joint inference.
type Config struct {
	Threads int        // worker threads per task (default: NumCPU, max 8)
	Rounds  int        // coordinate-ascent sweeps per task (default 2)
	Fit     vi.Options // per-source Newton options
	Seed    uint64     // RNG seed for Cyclades sampling

	// Processes is the number of simulated scheduler ranks of a run
	// (default 4); on a real cluster each would be an MPI process.
	Processes int

	// PatchThreads is the second level of the thread budget: the number of
	// intra-fit patch-sweep workers each source fit's objective evaluations
	// fan out to (vi.Options.PatchWorkers). Threads sweeps sources;
	// PatchThreads parallelizes inside one source's evaluation, so machines
	// with more cores than the source-level cap of 8 put the surplus to
	// work. Default: NumCPU/Threads clamped to [1, 8]. The split is
	// accounting-only and cannot affect results — parallel evaluation is
	// bitwise identical to serial — so like Threads it is excluded from
	// RunHash and never carried on the wire (each worker process derives its
	// own from local core counts).
	PatchThreads int
}

// batchFrac is the Cyclades sample fraction per batch: each batch samples
// this share of a task's sources (arXiv:1801.10277 §IV), a fixed part of the
// method rather than a run setting.
const batchFrac = 0.34

// defaults fills unset fields and clamps invalid ones. Zero means "use the
// default", but negative values must be normalized too: a negative
// Threads used to flow through and size the worker slice with a negative
// length (a panic), and a negative Rounds silently skipped every sweep
// locally while converting to a huge uint32 on the wire.
func (c *Config) defaults() {
	if c.Threads < 1 {
		c.Threads = runtime.NumCPU()
		if c.Threads > 8 {
			c.Threads = 8
		}
	}
	if c.Rounds < 1 {
		c.Rounds = 2
	}
	if c.Processes < 1 {
		c.Processes = 4
	}
	if c.PatchThreads < 1 {
		c.PatchThreads = runtime.NumCPU() / c.Threads
		if c.PatchThreads < 1 {
			c.PatchThreads = 1
		}
		if c.PatchThreads > 8 {
			c.PatchThreads = 8
		}
	}
}

// Stats aggregates work counters across fits.
type Stats struct {
	Fits        int64
	NewtonIters int64
	Visits      int64 // active pixel visits (FLOP accounting)
}

// InfluenceRadiusPx estimates how far a source's light reaches, in pixels:
// brighter sources and larger galaxies have wider active regions. This also
// defines the conflict radius for Cyclades.
func InfluenceRadiusPx(e *model.CatalogEntry, pixScale float64) float64 {
	flux := math.Max(e.Flux[model.RefBand], 0.1)
	r := 4 + 1.6*math.Log1p(flux)
	if e.IsGal() && e.GalScale > 0 {
		r += 2.5 * e.GalScale / pixScale
	}
	return math.Min(r, 30)
}

// Region is one task's worth of joint optimization state.
type Region struct {
	Priors *model.Priors
	Images []*survey.Image

	Sources []int                 // global catalog indices being optimized
	Entries []*model.CatalogEntry // catalog entries (for radii/init)
	Params  []model.Params        // current parameters, updated in place

	// Fixed sources outside the region whose light overlaps it.
	Neighbors []model.Constrained

	PixScale float64
}

// workerScratch owns everything one sweep thread needs: the fit scratch
// (ELBO buffers, trust-region workspace, row-sweep lanes), the
// pooled problem builder (patch storage and neighbor-fold buffers), and the
// neighbor-dedup bitmap. Pooled across Process calls so a steady-state
// sweep performs no per-fit heap allocations.
type workerScratch struct {
	fit  *vi.Scratch
	pbld elbo.Builder
	nbrs []int
	seen []bool
}

// freeList is a mutex-guarded scratch pool. Unlike sync.Pool it is immune
// to GC clearing: a garbage collection mid-sweep must not discard the warm
// lane slabs and patch buffers and force a rebuild.
// Retention is bounded by the high-water mark of concurrent users (ranks x
// threads), which is exactly the working set a long-running worker needs.
type freeList[T any] struct {
	mu    sync.Mutex
	free  []*T
	newFn func() *T
}

func (p *freeList[T]) get() *T {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return x
	}
	p.mu.Unlock()
	return p.newFn()
}

func (p *freeList[T]) put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}

var workerPool = freeList[workerScratch]{newFn: func() *workerScratch { return &workerScratch{fit: vi.NewScratch()} }}

// processScratch owns the per-Process-call planning buffers.
type processScratch struct {
	pos     []geom.Pt2
	radii   []float64
	graph   cyclades.Graph
	planner cyclades.Planner
	workers []*workerScratch
}

var processPool = freeList[processScratch]{newFn: func() *processScratch { return new(processScratch) }}

// Process jointly optimizes the region's sources: Cyclades-planned batches
// of conflict-free components, each component's sources fitted serially by
// one thread with all overlapping light subtracted. Returns work statistics.
func (cfg Config) Process(rg *Region) Stats {
	cfg.defaults()
	// Two-level thread budget: unless the caller pinned an explicit
	// per-fit worker count, hand the patch-level share of the budget to
	// every fit this sweep runs. Purely a throughput split — the fit
	// results are bitwise identical at any worker count.
	if cfg.Fit.PatchWorkers < 1 {
		cfg.Fit.PatchWorkers = cfg.PatchThreads
	}
	var stats Stats
	n := len(rg.Sources)
	if n == 0 {
		return stats
	}

	ps := processPool.get()
	defer processPool.put(ps)

	// Conflict graph over the region's sources.
	if cap(ps.pos) < n {
		ps.pos = make([]geom.Pt2, n)
		ps.radii = make([]float64, n)
	}
	pos, radii := ps.pos[:n], ps.radii[:n]
	for i := range rg.Sources {
		c := rg.Params[i].Constrained()
		pos[i] = c.Pos
		radii[i] = InfluenceRadiusPx(rg.Entries[i], rg.PixScale) * rg.PixScale
	}
	ps.planner.BuildConflictGraph(&ps.graph, pos, radii)
	graph := &ps.graph
	r := rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)

	batchSize := int(batchFrac * float64(n))
	if batchSize < 1 {
		batchSize = 1
	}

	// Each worker thread owns one scratch for the whole sweep: every source
	// it fits reuses the same problem builder, ELBO buffers, and
	// trust-region workspace, so the steady-state inner loop never touches
	// the heap (Section VI-B budgets the per-source Newton fit as the unit
	// of work; the scratch is what keeps that unit allocation-free).
	if cap(ps.workers) < cfg.Threads {
		ps.workers = make([]*workerScratch, cfg.Threads)
	}
	workers := ps.workers[:cfg.Threads]
	for t := range workers {
		workers[t] = workerPool.get()
	}
	defer func() {
		for t := range workers {
			workerPool.put(workers[t])
			workers[t] = nil
		}
	}()

	// Each source's fit in sweep r+1 starts from its sweep-r parameters
	// (Params is updated in place) at vi's fixed initial trust radius. Every
	// sweep fits at the configured tolerances: the fit's constant
	// Newton-decrement stop (1e-3 nats) ends the fits before the gradient
	// tolerance does, so an early sweep gains nothing from a looser GradTol.
	for round := 0; round < cfg.Rounds; round++ {
		batches := ps.planner.Plan(graph, r, batchSize)
		for bi := range batches {
			queues := ps.planner.Assign(&batches[bi], cfg.Threads)
			var wg sync.WaitGroup
			for t := 0; t < cfg.Threads; t++ {
				if len(queues[t]) == 0 {
					continue
				}
				wg.Add(1)
				go func(comps [][]int, ws *workerScratch) {
					defer wg.Done()
					for _, comp := range comps {
						for _, li := range comp {
							cfg.fitOne(rg, graph, li, &stats, ws)
						}
					}
				}(queues[t], workers[t])
			}
			wg.Wait()
		}
	}
	return stats
}

// fitOne fits local source li with its conflict-graph neighbors (current
// values) and the external fixed neighbors folded into the background,
// reusing the worker's scratch buffers for problem construction and the fit
// itself.
func (cfg Config) fitOne(rg *Region, graph *cyclades.Graph, li int, stats *Stats, ws *workerScratch) {
	cur := rg.Params[li].Constrained()
	radiusPx := InfluenceRadiusPx(rg.Entries[li], rg.PixScale)
	pb := ws.pbld.Build(rg.Priors, rg.Images, cur.Pos, radiusPx)
	if len(pb.Patches) == 0 {
		return
	}
	// Internal neighbors: sources whose influence overlaps (graph edges).
	for _, nb := range ws.neighborsOf(graph, li, len(rg.Sources)) {
		nc := rg.Params[nb].Constrained()
		ws.pbld.AddNeighbor(&nc)
	}
	for i := range rg.Neighbors {
		ws.pbld.AddNeighbor(&rg.Neighbors[i])
	}
	res := vi.FitWith(pb, rg.Params[li], cfg.Fit, ws.fit)
	rg.Params[li] = res.Params
	atomic.AddInt64(&stats.Fits, 1)
	atomic.AddInt64(&stats.NewtonIters, int64(res.Iters))
	atomic.AddInt64(&stats.Visits, res.Visits)
}

// neighborsOf lists the conflict-graph neighbors of v (deduplicated,
// first-seen order) into the worker's pooled buffers.
func (ws *workerScratch) neighborsOf(g *cyclades.Graph, v, n int) []int {
	ws.nbrs = ws.nbrs[:0]
	if cap(ws.seen) < n {
		ws.seen = make([]bool, n)
	}
	seen := ws.seen[:n]
	for _, w := range g.Adj(v) {
		if !seen[w] {
			seen[w] = true
			ws.nbrs = append(ws.nbrs, w)
		}
	}
	for _, w := range ws.nbrs {
		seen[w] = false
	}
	return ws.nbrs
}

// RunResult is the outcome of a full distributed run.
type RunResult struct {
	Catalog []model.CatalogEntry
	Stats   Stats

	TasksProcessed int
	PGASLocalOps   int64
	PGASRemoteOps  int64

	// Fault-recovery and load-balance accounting, filled by the run
	// backend's one epilogue whichever link the ranks used. Only a worker
	// can die, so FailedRanks and RequeuedTasks are 0 in process.
	FailedRanks   int
	RequeuedTasks int
	StolenTasks   int // tasks an idle rank pulled out of another rank's pool

	// Membership accounting: only wire ranks can join.
	JoinedRanks int // ranks minted past the static complement mid-run
}

// RunOptions adds checkpoint/resume, catalog streaming and the TCP link to a
// run.
type RunOptions struct {
	// CheckpointEvery fires OnCheckpoint after every that-many task
	// completions (0 disables checkpointing).
	CheckpointEvery int

	// OnCheckpoint receives each captured checkpoint. Returning a non-nil
	// error aborts the run: RunWithOptions returns the partial result and an
	// error wrapping ErrAborted.
	//
	// The hook runs under the run's commit lock: invocations are strictly
	// serialized in commit order (a persisted checkpoint is never
	// overwritten by an older one), at the cost of stalling other ranks'
	// commits while it runs. Task granularity dwarfs checkpoint I/O in
	// practice; raise CheckpointEvery if it does not.
	OnCheckpoint func(*Checkpoint) error

	// Resume restores a prior run's checkpoint. The checkpoint's RunHash
	// must match this run's inputs; Threads and Processes may differ.
	Resume *Checkpoint

	// OnCatalog streams incremental posterior summaries to a catalog
	// consumer (the catserve index): after every CheckpointEvery task
	// commits (every commit when CheckpointEvery is 0), the hook receives
	// the global source indices refreshed by those tasks and their freshly
	// summarized catalog entries — the same math that builds the final
	// output catalog, applied to the live parameter array.
	// When the run completes, the hook fires one final time with every
	// source and the exact entries of RunResult.Catalog, so a consumer's
	// last state is byte-identical to the written catalog even on resumed
	// runs where already-done tasks never re-commit.
	//
	// Like OnCheckpoint, the periodic invocations run under the run's
	// commit lock and are strictly serialized in commit order. The hook
	// must not call back into the run.
	OnCatalog func(idx []int, entries []model.CatalogEntry)

	// Transport selects the link between the ranks and the run's state
	// machine. Nil means the ranks live in this process: cfg.Processes
	// goroutines call the backend directly and touch the parameter arrays
	// through shared-memory views. Non-nil serves the same backend over TCP
	// to cfg.Processes real worker processes, which pull tasks, fetch
	// frozen stage input, and write results over the wire; the catalog is
	// byte-identical either way, including across worker deaths and
	// checkpoint resumes.
	Transport *cnet.Transport
}

// runState is the mutable shared state of one (possibly resumed) run. Task
// commits — completion bit, work counters, checkpoint capture — happen under
// one lock, so a checkpoint always sees a task either fully committed or not
// at all. Parameter writes for uncommitted tasks may be mid-flight in cur
// when a checkpoint snapshots it; that is harmless, because an uncommitted
// task re-runs on resume and, reading its inputs from the frozen stage-start
// array, rewrites exactly the same bytes.
type runState struct {
	mu             sync.Mutex
	done           []bool
	stats          Stats
	tasksProcessed int
	sinceCk        int
	stage          int
	hash           uint64

	cur      *pgas.Array    // live parameters: completed tasks' outputs
	prev     *pgas.Array    // frozen stage-input parameters (read side)
	prevSnap *pgas.Snapshot // serialized form of prev, shared by checkpoints

	// lastCurSnap is the previous checkpoint's capture of cur, used for
	// incremental capture (unchanged shards are shared, not re-copied). cur
	// is built once, at setup, and never replaced, so the baseline holds for
	// the whole incarnation; restore leaves it nil, since a fresh array
	// restarts shard versions and a stale snapshot could falsely match them.
	lastCurSnap *pgas.Snapshot

	// PGAS op counters carried from discarded arrays (earlier stages) and
	// pre-resume incarnations.
	carriedLocal, carriedRemote int64

	every int
	hook  func(*Checkpoint) error

	// Catalog streaming (OnCatalog): the run's tasks and input catalog, the
	// sources refreshed by commits since the last flush, and the batching
	// interval. All owned by the commit lock.
	tasks      []partition.Task
	catalog    []model.CatalogEntry
	pendingSrc []int
	sinceCat   int
	catEvery   int
	catHook    func(idx []int, entries []model.CatalogEntry)

	aborted  atomic.Bool
	abortErr error
}

// foldArrayStats retires an Array's traffic counters into the carried sums.
func (st *runState) foldArrayStats(a *pgas.Array) {
	l, r := a.Stats()
	st.carriedLocal += l
	st.carriedRemote += r
}

// captureLocked builds a checkpoint under st.mu.
func (st *runState) captureLocked() *Checkpoint {
	cl, cr := st.carriedLocal, st.carriedRemote
	for _, a := range []*pgas.Array{st.cur, st.prev} {
		l, r := a.Stats()
		cl += l
		cr += r
	}
	// Incremental capture: shards of cur untouched since the previous
	// checkpoint are shared with it instead of re-copied, so steady-state
	// checkpoint cost scales with the write set, not the survey size.
	curSnap := st.cur.SnapshotDelta(st.lastCurSnap)
	st.lastCurSnap = curSnap
	return &Checkpoint{
		Hash:           st.hash,
		Stage:          st.stage,
		Done:           append([]bool(nil), st.done...),
		Cur:            curSnap,
		StageStart:     st.prevSnap,
		Stats:          st.stats,
		TasksProcessed: st.tasksProcessed,
		PGASLocal:      cl,
		PGASRemote:     cr,
	}
}

// commit finalizes one task: completion bit, counters, and — every
// CheckpointEvery commits — a checkpoint capture. The hook runs under the
// commit lock: invocations are serialized in commit order, so a hook that
// persists each checkpoint can never have an older state overwrite a newer
// file.
func (st *runState) commit(gi int, s Stats) {
	st.mu.Lock()
	st.done[gi] = true
	st.stats.Fits += s.Fits
	st.stats.NewtonIters += s.NewtonIters
	st.stats.Visits += s.Visits
	st.tasksProcessed++
	if st.catHook != nil {
		st.pendingSrc = append(st.pendingSrc, st.tasks[gi].Sources...)
		st.sinceCat++
		if st.sinceCat >= st.catEvery {
			st.flushCatalogLocked()
		}
	}
	var hookErr error
	if st.every > 0 && st.hook != nil {
		st.sinceCk++
		if st.sinceCk >= st.every {
			st.sinceCk = 0
			if hookErr = st.hook(st.captureLocked()); hookErr != nil && st.abortErr == nil {
				st.abortErr = fmt.Errorf("%w: %w", ErrAborted, hookErr)
			}
		}
	}
	st.mu.Unlock()
	if hookErr != nil {
		st.aborted.Store(true)
	}
}

// flushCatalogLocked summarizes every source touched since the last flush
// from the live array and hands the batch to the OnCatalog hook. Runs under
// st.mu; the per-shard locks in pgas make each Get atomic, and task purity
// makes any value read here one that the owning task will commit.
func (st *runState) flushCatalogLocked() {
	st.sinceCat = 0
	if len(st.pendingSrc) == 0 {
		return
	}
	// A source can pend twice when a flush spans the stage boundary; the
	// duplicate would read the same bytes, so keep the first.
	idx := st.pendingSrc[:0]
	seen := make(map[int]bool, len(st.pendingSrc))
	for _, i := range st.pendingSrc {
		if !seen[i] {
			seen[i] = true
			idx = append(idx, i)
		}
	}
	ents := make([]model.CatalogEntry, len(idx))
	for k, i := range idx {
		ents[k] = st.summarize(i, st.catalog[i].ID)
	}
	st.catHook(append([]int(nil), idx...), ents)
	st.pendingSrc = st.pendingSrc[:0]
}

// summarize is the posterior summary of source i's live parameters: the one
// step behind both the output catalog and the OnCatalog stream.
func (st *runState) summarize(i, id int) model.CatalogEntry {
	var p model.Params
	st.cur.Get(0, i, p[:])
	c := p.Constrained()
	return model.Summarize(id, &c)
}

// RunWithOptions executes the full three-level optimization over a survey:
// tasks from the two-stage partition are scheduled with Dtree over simulated
// processes; each task reads its sources' and fixed neighbors' parameters
// from the frozen stage-input PGAS array, jointly optimizes the region, and
// writes the results into the live array. The frozen read side makes every
// task a pure function of the stage input — the property that makes tasks
// idempotent (a rescheduled task recomputes identical bytes), the catalog
// independent of thread and process counts, and checkpoints resumable to a
// byte-identical result.
//
// opts adds checkpoint/resume, catalog streaming and the TCP link. On a
// hook-requested abort it returns the partial result and an error wrapping
// ErrAborted; when every worker of a TCP run is dead with tasks outstanding
// it returns an error describing the stranded work.
func RunWithOptions(sv *survey.Survey, catalog []model.CatalogEntry, tasks []partition.Task,
	cfg Config, opts RunOptions) (*RunResult, error) {

	cfg.defaults()
	priors := model.FitPriors(catalog)

	st := &runState{
		done:  make([]bool, len(tasks)),
		every: opts.CheckpointEvery,
		hook:  opts.OnCheckpoint,
	}
	if opts.OnCatalog != nil {
		st.catHook = opts.OnCatalog
		st.tasks = tasks
		st.catalog = catalog
		st.catEvery = opts.CheckpointEvery
		if st.catEvery <= 0 {
			st.catEvery = 1
		}
	}
	// The run hash walks every survey pixel; only pay for it when a
	// checkpoint could be written or consumed, or when the TCP handshake
	// needs it as the differential oracle against each worker's
	// independently reconstructed run.
	if opts.Resume != nil || opts.Transport != nil ||
		(opts.CheckpointEvery > 0 && opts.OnCheckpoint != nil) {
		st.hash = RunHash(sv, catalog, tasks, cfg)
	}

	if ck := opts.Resume; ck != nil {
		if err := st.restore(ck, len(catalog), cfg.Processes, len(tasks)); err != nil {
			return nil, err
		}
	} else {
		st.cur = pgas.New(len(catalog), model.ParamDim, cfg.Processes)
		for i := range catalog {
			p := model.InitialParams(&catalog[i])
			st.cur.Put(0, i, p[:])
		}
		st.freezeStage(0)
	}

	var stage0, stage1 []int // global task indices per stage
	for i, t := range tasks {
		if t.Stage == 0 {
			stage0 = append(stage0, i)
		} else {
			stage1 = append(stage1, i)
		}
	}
	if st.stage == 1 {
		for _, gi := range stage0 {
			if !st.done[gi] {
				return nil, fmt.Errorf("core: checkpoint claims stage 1 but stage-0 task %d is incomplete", gi)
			}
		}
	}

	res := &RunResult{}
	// Populate the work counters on every exit path — an aborted or
	// stranded run's "partial result" contract includes them.
	defer st.fillResult(res)
	// One state machine runs every run; Transport only picks the link its
	// ranks reach it over.
	b := newBackend(cfg.Processes, [][]int{stage0, stage1}, st)
	var linkErr error
	if opts.Transport != nil {
		linkErr = b.serve(opts.Transport, cfg, len(tasks))
	} else {
		b.runRanks(&rankInputs{cfg: cfg, sv: sv, catalog: catalog, priors: &priors, tasks: tasks})
	}
	if err := b.finishRun(res, linkErr); err != nil {
		return res, err
	}

	// Summarize the final parameters into the output catalog.
	res.Catalog = make([]model.CatalogEntry, len(catalog))
	for i := range catalog {
		res.Catalog[i] = st.summarize(i, catalog[i].ID)
	}
	if st.catHook != nil {
		// Final flush: every source, with the exact entries of the output
		// catalog. This covers sources whose tasks never committed in this
		// incarnation (done before a resume) and supersedes any pending
		// partial batch, so a catalog consumer ends byte-identical to the
		// written catalog file.
		idx := make([]int, len(catalog))
		for i := range idx {
			idx[i] = i
		}
		st.mu.Lock()
		st.pendingSrc = st.pendingSrc[:0]
		st.catHook(idx, append([]model.CatalogEntry(nil), res.Catalog...))
		st.mu.Unlock()
	}
	return res, nil
}

// fillResult copies the run's cumulative work counters into the result.
func (st *runState) fillResult(res *RunResult) {
	st.mu.Lock()
	res.Stats = st.stats
	res.TasksProcessed = st.tasksProcessed
	cl, cr := st.carriedLocal, st.carriedRemote
	st.mu.Unlock()
	for _, a := range []*pgas.Array{st.cur, st.prev} {
		if a != nil {
			l, r := a.Stats()
			cl += l
			cr += r
		}
	}
	res.PGASLocalOps, res.PGASRemoteOps = cl, cr
}

// restore rebuilds the run state from a checkpoint, repartitioning the PGAS
// snapshots if the process count changed.
func (st *runState) restore(ck *Checkpoint, nSources, procs, nTasks int) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	if ck.Hash != st.hash {
		return fmt.Errorf("core: checkpoint hash %016x does not match run inputs %016x", ck.Hash, st.hash)
	}
	if ck.Cur.N != nSources || ck.Cur.Width != model.ParamDim {
		return fmt.Errorf("core: checkpoint holds %dx%d parameters, run needs %dx%d",
			ck.Cur.N, ck.Cur.Width, nSources, model.ParamDim)
	}
	if len(ck.Done) != nTasks {
		return fmt.Errorf("core: checkpoint bitmap covers %d tasks, run has %d", len(ck.Done), nTasks)
	}
	curSnap, err := ck.Cur.Repartition(procs)
	if err != nil {
		return err
	}
	prevSnap, err := ck.StageStart.Repartition(procs)
	if err != nil {
		return err
	}
	if st.cur, err = pgas.FromSnapshot(curSnap); err != nil {
		return err
	}
	if st.prev, err = pgas.FromSnapshot(prevSnap); err != nil {
		return err
	}
	st.prevSnap = prevSnap
	st.lastCurSnap = nil // cur was replaced; its shard versions restarted
	st.stage = ck.Stage
	copy(st.done, ck.Done)
	st.stats = ck.Stats
	st.tasksProcessed = ck.TasksProcessed
	st.carriedLocal = ck.PGASLocal
	st.carriedRemote = ck.PGASRemote
	return nil
}

// freezeStage snapshots the live array as stage s's immutable input.
func (st *runState) freezeStage(s int) {
	if st.prev != nil {
		st.foldArrayStats(st.prev)
	}
	st.stage = s
	st.prevSnap = st.cur.Snapshot()
	// Error impossible: the snapshot was just taken from a live array.
	st.prev, _ = pgas.FromSnapshot(st.prevSnap)
}

// taskScratch owns the per-task buffers ExecTask needs — the read index and
// parameter staging buffers, the in-region bitmap, and the Region itself —
// pooled so a worker executing task after task allocates nothing in steady
// state.
type taskScratch struct {
	readIdx   []int
	buf, wbuf []float64
	inRegion  []bool
	images    []*survey.Image
	rg        Region
}

var taskPool = freeList[taskScratch]{newFn: func() *taskScratch { return new(taskScratch) }}

// ExecTask executes one region task as a pure function of the frozen stage
// input: every parameter it consumes is read through `in` (the stage-input
// array) and every result is written through `out` (the live array). Every
// rank runs this function (rankInputs.step) — a goroutine rank over
// shared-memory views, a worker process over the coordinator connection —
// which is what makes their catalogs byte-identical: the computation between
// the reads and the writes is the same code over the same bytes. Re-executing
// a task (after a rank failure, or on resume) rewrites identical bytes.
func (cfg Config) ExecTask(sv *survey.Survey, catalog []model.CatalogEntry,
	priors *model.Priors, task *partition.Task, in pgas.Getter, out pgas.Putter) (Stats, error) {

	if len(task.Sources) == 0 {
		return Stats{}, nil
	}
	ts := taskPool.get()
	defer func() {
		// Drop object references so a pooled scratch does not pin the
		// previous run's catalog and images beyond the task.
		for i := range ts.rg.Entries {
			ts.rg.Entries[i] = nil
		}
		for i := range ts.images {
			ts.images[i] = nil
		}
		ts.rg.Images = nil
		ts.rg.Priors = nil
		taskPool.put(ts)
	}()
	pixScale := sv.Config.PixScale
	// Determine the images and the fixed neighbors: sources outside the
	// region whose influence reaches inside. Neighbor selection depends only
	// on the static catalog, never on live parameters, so the read set is
	// known before any parameter is fetched — one batched read per task.
	margin := 35 * pixScale
	imgBox := task.Box.Expand(margin)
	ts.images = sv.ImagesInBoxInto(ts.images[:0], imgBox)

	if cap(ts.inRegion) < len(catalog) {
		ts.inRegion = make([]bool, len(catalog))
	}
	inRegion := ts.inRegion[:len(catalog)]
	for _, s := range task.Sources {
		inRegion[s] = true
	}
	defer func() {
		for _, s := range task.Sources {
			inRegion[s] = false
		}
	}()

	rg := &ts.rg
	rg.Priors = priors
	rg.Images = ts.images
	rg.PixScale = pixScale
	rg.Sources = rg.Sources[:0]
	rg.Entries = rg.Entries[:0]
	rg.Params = rg.Params[:0]
	rg.Neighbors = rg.Neighbors[:0]

	ts.readIdx = append(ts.readIdx[:0], task.Sources...)
	for i := range catalog {
		if inRegion[i] {
			continue
		}
		e := &catalog[i]
		reach := InfluenceRadiusPx(e, pixScale) * pixScale
		if !task.Box.Expand(reach).Contains(e.Pos) {
			continue
		}
		ts.readIdx = append(ts.readIdx, i)
	}
	readIdx := ts.readIdx
	ts.buf = sliceutil.Grow(ts.buf, len(readIdx)*model.ParamDim)
	buf := ts.buf
	if err := in.GetMulti(readIdx, buf); err != nil {
		return Stats{}, err
	}
	for k, s := range readIdx {
		var p model.Params
		copy(p[:], buf[k*model.ParamDim:(k+1)*model.ParamDim])
		if k < len(task.Sources) {
			rg.Sources = append(rg.Sources, s)
			rg.Entries = append(rg.Entries, &catalog[s])
			rg.Params = append(rg.Params, p)
		} else {
			rg.Neighbors = append(rg.Neighbors, p.Constrained())
		}
	}

	s := cfg
	s.Seed = cfg.Seed + uint64(task.ID)*0x9e3779b9
	stats := s.Process(rg)

	ts.wbuf = sliceutil.Grow(ts.wbuf, len(rg.Sources)*model.ParamDim)
	wbuf := ts.wbuf
	for li := range rg.Sources {
		copy(wbuf[li*model.ParamDim:(li+1)*model.ParamDim], rg.Params[li][:])
	}
	if err := out.PutMulti(rg.Sources, wbuf); err != nil {
		return stats, err
	}
	return stats, nil
}
