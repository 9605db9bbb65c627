package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"celeste/internal/core"
	"celeste/internal/cyclades"
	"celeste/internal/dtree"
	"celeste/internal/elbo"
	"celeste/internal/galprof"
	"celeste/internal/geom"
	"celeste/internal/imageio"
	"celeste/internal/model"
	"celeste/internal/mog"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/rng"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// What cmd/celeste passes when its flags are left alone.
const (
	targetWork = 2e6 // celeste.InferWithOptions' partition target
	cliRounds  = 2
	cliMaxIter = 40
	cliSeed    = 1
)

func tracePath(e *env, workload string) string {
	return filepath.Join(e.out, "trace-"+workload+".jsonl")
}

// ledger collects one traced run's per-layer metrics.
type ledger map[string]float64

// traceInference is the traced run of an inference workload. It reads the
// bytes the end-to-end run's first draw read, repeats in this process what
// cmd/celeste does with them under a span recorder, and then times each
// layer's exported functions on the run's own data. Nothing inside the
// layers is instrumented; every span is a call made from here.
func traceInference(w *workload, e *env, seed uint64) (*workloadResult, error) {
	res := newResult(w.Name)
	rec := newRecorder(fmt.Sprintf("%s-%d", w.Name, seed))
	L := ledger{}
	s, err := makeSky(w, e, seed, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	res.InputSHA256 = s.sha
	res.Attempted = len(s.init)

	L["survey.generate_s"] = rec.time("survey.generate", 0, func() { survey.Generate(w.Sky.config()) }).Seconds()

	// The pipeline of cmd/celeste: load, partition, infer, write.
	root := rec.begin("catalog", 0)
	var images []*survey.Image
	var truth, init []model.CatalogEntry
	load := rec.time("imageio.load", root, func() {
		if images, truth, err = imageio.ReadSurveyDir(s.dir); err == nil {
			init, err = imageio.ReadCatalog(filepath.Join(s.dir, "init.jsonl"))
		}
	})
	if err != nil {
		return nil, err
	}
	sv := reassemble(images, truth)
	var tasks []partition.Task
	L["partition.generate_ms"] = ms(rec.time("partition.generate", root, func() {
		tasks = partition.GenerateTwoStage(init, sv.Config.Region, partition.Options{TargetWork: targetWork})
	}))
	cfg := core.Config{Threads: w.Threads, PatchThreads: w.PatchThreads, Processes: max(w.Procs, w.Spawn),
		Rounds: cliRounds, Seed: cliSeed, Fit: vi.Options{MaxIter: cliMaxIter}}

	// The traced run: a checkpoint after every commit gives the commit
	// timeline, and the one at half-way is kept for the checkpoint lanes.
	ckPath := filepath.Join(e.work, w.Name+".celk")
	runSpan := rec.begin("core.run", root)
	var mid *core.Checkpoint
	commits := 0
	traced, err := inProcessRun(w, sv, init, tasks, cfg, core.RunOptions{
		CheckpointEvery: 1,
		OnCheckpoint: func(ck *core.Checkpoint) (err error) { // serialized by the commit lock
			id := rec.begin("core.commit", runSpan)
			if commits++; commits == (len(tasks)+1)/2 {
				mid = ck
			}
			if w.Spawn > 0 && commits%4 == 0 {
				err = imageio.SaveCheckpoint(ckPath, ck) // as -checkpoint-every 4 does
			}
			rec.end(id)
			return err
		},
	})
	if err != nil {
		return nil, err
	}
	run := rec.end(runSpan)
	out := filepath.Join(e.work, w.Name+"-traced.jsonl")
	L["imageio.catalog_write_ms"] = ms(rec.time("imageio.catalog_write", root, func() { err = imageio.WriteCatalog(out, traced.Catalog) }))
	if err != nil {
		return nil, err
	}
	wall := rec.end(root)

	// The same run with the recorder off prices the tracing.
	var saveEvery4 core.RunOptions
	if w.Spawn > 0 {
		saveEvery4 = core.RunOptions{CheckpointEvery: 4,
			OnCheckpoint: func(ck *core.Checkpoint) error { return imageio.SaveCheckpoint(ckPath, ck) }}
	}
	t0 := time.Now()
	plain, err := inProcessRun(w, sv, init, tasks, cfg, saveEvery4)
	if err != nil {
		return nil, err
	}
	untraced := time.Since(t0)
	L["trace.overhead_frac"] = (run - untraced).Seconds() / untraced.Seconds()

	// The plain single-thread baseline: every task replayed serially.
	rp, err := replay(w, rec, sv, init, tasks, cfg)
	if err != nil {
		return nil, err
	}

	// Determinism: tracing, rank count, thread count and runtime must not
	// change one byte of the catalog.
	want := catalogSHA(traced.Catalog)
	for name, c := range map[string][]model.CatalogEntry{"untraced run": plain.Catalog, "serial replay": rp.catalog} {
		if got := catalogSHA(c); got != want {
			res.fail(len(init), fmt.Sprintf("%s catalog %.12s differs from the traced run's %.12s", name, got, want))
		}
	}
	if n, why := checkCatalog(init, traced.Catalog); n > 0 {
		res.fail(n, why)
	}

	cores := float64(cfg.Processes * w.Threads * w.PatchThreads)
	L["imageio.load_s"] = load.Seconds()
	L["imageio.load_mb_per_s"] = float64(s.bytes) / 1e6 / load.Seconds()
	_, _, _, L["partition.work_cv"] = partition.WorkStats(tasks)
	L["partition.tasks"] = float64(len(tasks))
	L["core.run_s"] = run.Seconds()
	L["core.serial_run_s"] = rp.wall.Seconds()
	L["core.speedup_vs_serial"] = rp.wall.Seconds() / run.Seconds()
	L["core.imbalance_frac"] = 1 - L["core.speedup_vs_serial"]/cores
	L["core.exec_task_ms_p50"] = percentile(rp.taskMS, 50)
	L["core.exec_task_ms_max"] = rp.taskMS[len(rp.taskMS)-1]
	L["core.exec_task_sum_s"] = rp.sum.Seconds()
	L["core.task_read_us"] = medianOf(rp.readUS)
	L["core.task_write_us"] = medianOf(rp.writeUS)
	L["core.commit_gap_ms_max"] = ms(rec.maxGap("core.commit"))
	L["core.fits"] = float64(traced.Stats.Fits)
	L["core.newton_iters"] = float64(traced.Stats.NewtonIters)
	L["core.visits"] = float64(traced.Stats.Visits)
	L["core.tasks_processed"] = float64(traced.TasksProcessed)
	L["core.pos_err_px"], L["core.mag_abs_err"] = accuracy(truth, traced.Catalog, sv.Config.PixScale)
	L["pgas.remote_frac"] = float64(traced.PGASRemoteOps) / float64(max(traced.PGASLocalOps+traced.PGASRemoteOps, 1))
	if runtime.NumCPU() < 2 {
		res.Unverified = []string{"core.speedup_vs_serial", "core.imbalance_frac", "elbo.par2_speedup_full"}
	}

	if err := checkpointLanes(L, rec, ckPath, mid); err != nil {
		return nil, err
	}
	dtreeLanes(L)
	pgasLanes(L, rp, tasks, len(init), cfg.Processes)
	if err := netLanes(L, rp, tasks); err != nil {
		return nil, err
	}
	cycladesLanes(L, init, tasks, sv.Config.PixScale)
	fitLanes(L, rec, sv, init, tasks, traced.Stats.Visits, rp.sum)
	mogLanes(L, sv.Images[0], init)

	// The time budget, the paper's §VII table for this run: shares of the
	// traced pipeline's wall clock. Task time and parameter traffic come from
	// the serial replay, spread over the cores the run used; what the run
	// took beyond them and the commits is imbalance (idle ranks, contention,
	// start-up); `other` is whatever no span accounts for.
	compute := rec.selfTotal("core.exec_task") // task time outside its parameter reads and writes
	traffic := rp.sum - compute
	commit := rec.total("core.commit")
	L["budget.load_frac"] = frac(load, wall)
	L["budget.task_frac"] = frac(compute, wall) / cores
	L["budget.param_traffic_frac"] = frac(traffic, wall) / cores
	L["budget.commit_frac"] = frac(commit, wall)
	L["budget.imbalance_frac"] = frac(run-commit, wall) - frac(rp.sum, wall)/cores
	L["budget.other_frac"] = 1 - L["budget.load_frac"] - L["budget.task_frac"] - L["budget.param_traffic_frac"] -
		L["budget.commit_frac"] - L["budget.imbalance_frac"]
	L["trace.spans"] = float64(len(rec.spans))

	res.PerLayer = L
	return res, rec.writeJSONL(tracePath(e, w.Name))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func frac(part, whole time.Duration) float64 { return float64(part) / float64(whole) }

func catalogSHA(c []model.CatalogEntry) string {
	raw, _ := json.Marshal(c) // plain structs of finite floats
	h := sha256.Sum256(raw)
	return hex.EncodeToString(h[:])
}

// inProcessRun runs the workload's configuration inside this process:
// goroutine ranks, or for a -spawn workload the TCP coordinator with its
// workers as goroutines dialling it over loopback.
func inProcessRun(w *workload, sv *survey.Survey, init []model.CatalogEntry, tasks []partition.Task,
	cfg core.Config, opts core.RunOptions) (*core.RunResult, error) {

	if w.Spawn == 0 {
		return core.RunWithOptions(sv, init, tasks, cfg, opts)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	opts.Transport = &cnet.Transport{Listener: l, TargetWork: targetWork}
	var wg sync.WaitGroup
	werrs := make([]error, w.Spawn)
	for i := range werrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			werrs[i] = core.RunWorker(l.Addr().String(), sv, init,
				core.WorkerOptions{Threads: w.Threads, PatchThreads: w.PatchThreads})
		}()
	}
	res, err := core.RunWithOptions(sv, init, tasks, cfg, opts)
	wg.Wait()
	for _, werr := range werrs {
		if err == nil && werr != nil {
			err = fmt.Errorf("worker: %w", werr)
		}
	}
	return res, err
}

// timedView times the parameter reads and writes of the task that is
// executing, as spans under the task's span.
type timedView struct {
	in     pgas.Getter
	out    pgas.Putter
	rec    *recorder
	parent int
	read   time.Duration
	write  time.Duration
	idx    []int // the task's read set, kept for the PGAS and wire lanes
}

func (v *timedView) GetMulti(idx []int, out []float64) error {
	id := v.rec.begin("pgas.getmulti", v.parent)
	err := v.in.GetMulti(idx, out)
	v.read += v.rec.end(id)
	v.idx = append(v.idx[:0], idx...)
	return err
}

func (v *timedView) PutMulti(idx []int, vals []float64) error {
	id := v.rec.begin("pgas.putmulti", v.parent)
	err := v.out.PutMulti(idx, vals)
	v.write += v.rec.end(id)
	return err
}

// replayed is the outcome of the serial replay.
type replayed struct {
	wall, sum       time.Duration
	taskMS          []float64 // ascending
	readUS, writeUS []float64 // per task
	readSets        [][]int   // per task, indexed like tasks
	catalog         []model.CatalogEntry
	final           *pgas.Array
}

// replay executes every task through Config.ExecTask on one thread, stage by
// stage, the way the run's ranks do but one at a time: the plain
// single-thread baseline, and the only place a task's parameter reads and
// writes can be timed from outside. A -spawn workload's tasks read and write
// through the wire client, against a coordinator serving the same arrays.
func replay(w *workload, rec *recorder, sv *survey.Survey, init []model.CatalogEntry,
	tasks []partition.Task, cfg core.Config) (*replayed, error) {

	cfg.Threads, cfg.PatchThreads, cfg.Processes = 1, 1, 1
	priors := model.FitPriors(init)
	cur := pgas.New(len(init), model.ParamDim, 1)
	for i := range init {
		p := model.InitialParams(&init[i])
		cur.Put(0, i, p[:])
	}
	be := &arrays{cur: cur}
	view := &timedView{rec: rec}
	if w.Spawn > 0 {
		cl, stop, err := dialStub(be, uint64(len(tasks)))
		if err != nil {
			return nil, err
		}
		defer stop()
		view.in, view.out = cl, cl
	}
	rp := &replayed{readSets: make([][]int, len(tasks)), final: cur}
	span := rec.begin("core.replay", 0)
	for stage := 0; stage < 2; stage++ {
		frozen, err := pgas.FromSnapshot(cur.Snapshot())
		if err != nil {
			return nil, err
		}
		be.setStage(frozen)
		if w.Spawn == 0 {
			view.in, view.out = frozen.View(0), cur.View(0)
		}
		for gi := range tasks {
			if tasks[gi].Stage != stage {
				continue
			}
			view.parent = rec.begin("core.exec_task", span)
			view.read, view.write = 0, 0
			if _, err := cfg.ExecTask(sv, init, &priors, &tasks[gi], view, view); err != nil {
				return nil, err
			}
			d := rec.end(view.parent)
			rp.sum += d
			rp.taskMS = append(rp.taskMS, ms(d))
			rp.readUS, rp.writeUS = append(rp.readUS, us(view.read)), append(rp.writeUS, us(view.write))
			rp.readSets[gi] = append([]int(nil), view.idx...)
		}
		if w.Spawn > 0 {
			// Writes carry no reply; a read behind them on the same ordered
			// connection returns only once they have all landed.
			if err := view.in.GetMulti([]int{0}, make([]float64, model.ParamDim)); err != nil {
				return nil, err
			}
		}
	}
	rp.wall = rec.end(span)
	sort.Float64s(rp.taskMS)
	if len(rp.taskMS) == 0 {
		return nil, fmt.Errorf("the partition holds no task with a source")
	}
	rp.catalog = make([]model.CatalogEntry, len(init))
	buf := make([]float64, model.ParamDim)
	for i := range init {
		cur.Get(0, i, buf)
		var p model.Params
		copy(p[:], buf)
		c := p.Constrained()
		rp.catalog[i] = model.Summarize(init[i].ID, &c)
	}
	return rp, nil
}

// arrays is the least coordinator the wire lanes need: it serves reads from
// a frozen stage-input array and writes into the live one, and hands out
// task numbers. No scheduling, no commits.
type arrays struct {
	mu     sync.Mutex
	frozen *pgas.Array
	cur    *pgas.Array
	ntasks uint64
	next   int
	done   chan struct{}
}

func (a *arrays) setStage(frozen *pgas.Array) {
	a.mu.Lock()
	a.frozen = frozen
	a.mu.Unlock()
}

func (a *arrays) Welcome() cnet.RunConfig {
	return cnet.RunConfig{Workers: 1, Width: model.ParamDim, NTasks: a.ntasks}
}
func (a *arrays) Next(int) (int, cnet.NextStatus) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.next++
	return a.next % int(a.ntasks), cnet.NextTask
}
func (a *arrays) Steal(rank int) (int, cnet.NextStatus) { return a.Next(rank) }
func (a *arrays) Commit(int, int, [3]uint64)            {}
func (a *arrays) Fail(int)                              {}
func (a *arrays) Leave(int)                             {}
func (a *arrays) Join() (int, bool)                     { return 0, false }
func (a *arrays) Done() <-chan struct{}                 { return a.done }
func (a *arrays) Snapshot(byte) (*pgas.Snapshot, error) { return a.cur.Snapshot(), nil }
func (a *arrays) Get(_ int, idx []uint64, out []float64) error {
	a.mu.Lock()
	frozen := a.frozen
	a.mu.Unlock()
	return frozen.View(0).GetMulti(toInts(idx), out)
}
func (a *arrays) Put(_ int, idx []uint64, vals []float64) error {
	return a.cur.View(0).PutMulti(toInts(idx), vals)
}

func toInts(idx []uint64) []int {
	out := make([]int, len(idx))
	for i, v := range idx {
		out[i] = int(v)
	}
	return out
}

// dialStub serves be on a loopback port and returns a connected, ready
// client. stop ends the session and waits for the server to return.
func dialStub(be *arrays, ntasks uint64) (cl *cnet.Client, stop func(), err error) {
	be.ntasks, be.done = ntasks, make(chan struct{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	served := make(chan error, 1)
	go func() { served <- cnet.Serve(l, be, cnet.ServeOptions{DeadAfter: 2 * time.Second}) }()
	stop = func() {
		if cl != nil {
			cl.Close()
		}
		close(be.done)
		<-served
	}
	if cl, err = cnet.Dial(l.Addr().String(), cnet.DialOptions{}); err == nil {
		err = cl.Ready(be.Welcome().RunHash, 0)
	}
	if err != nil {
		stop()
		return nil, nil, err
	}
	return cl, stop, nil
}

// perOp runs fn until it has taken 10 ms (at least three times) and returns
// the median duration of one call.
func perOp(fn func()) time.Duration {
	var ds []float64
	for start := time.Now(); len(ds) < 3 || time.Since(start) < 10*time.Millisecond; {
		t0 := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(medianOf(ds))
}

// checkpointLanes: CELK1 save and load of the checkpoint captured half-way
// through the traced run.
func checkpointLanes(L ledger, rec *recorder, path string, mid *core.Checkpoint) error {
	if mid == nil {
		return fmt.Errorf("the traced run never reached its half-way commit")
	}
	var err error
	L["imageio.ckpt_save_ms"] = ms(rec.time("imageio.ckpt_save", 0, func() { err = imageio.SaveCheckpoint(path, mid) }))
	if err != nil {
		return err
	}
	L["imageio.ckpt_load_ms"] = ms(rec.time("imageio.ckpt_load", 0, func() { _, err = imageio.LoadCheckpoint(path) }))
	if err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	L["imageio.ckpt_bytes"] = float64(st.Size())
	return nil
}

// dtreeLanes: a 4096-task, 2-rank scheduler drained by alternating ranks,
// and the cost of a steal from a full pool.
func dtreeLanes(L ledger) {
	const n = 4096
	s := dtree.New(dtree.Config{}, 2, n)
	t0 := time.Now()
	for live := true; live; {
		live = false
		for rank := 0; rank < 2; rank++ {
			if t, ok := s.Next(rank); ok {
				s.Done(rank, t)
				live = true
			}
		}
	}
	L["dtree.next_done_ns"] = float64(time.Since(t0)) / n
	delivered, requests := s.Stats()
	L["dtree.requests_per_task"] = float64(requests[0]+requests[1]) / float64(delivered[0]+delivered[1])

	s = dtree.New(dtree.Config{}, 2, n)
	steals := 0
	t0 = time.Now()
	for _, ok := s.Steal(1); ok; _, ok = s.Steal(1) {
		steals++
	}
	L["dtree.steal_ns"] = float64(time.Since(t0)) / float64(max(steals, 1))
}

// pgasLanes: batched reads and writes with the run's own per-task index
// sets, and full and incremental snapshots of the final array.
func pgasLanes(L ledger, rp *replayed, tasks []partition.Task, n, ranks int) {
	snap, _ := rp.final.Snapshot().Repartition(ranks) // the run's sharding
	a, _ := pgas.FromSnapshot(snap)
	buf := make([]float64, n*model.ParamDim)
	var reads, writes, nRead, nWrite float64
	for gi, idx := range rp.readSets {
		if len(idx) == 0 {
			continue
		}
		reads += float64(perOp(func() { a.View(0).GetMulti(idx, buf[:len(idx)*model.ParamDim]) }))
		nRead += float64(len(idx))
		src := tasks[gi].Sources
		vals := buf[:len(src)*model.ParamDim]
		a.View(0).GetMulti(src, vals)
		writes += float64(perOp(func() { a.View(0).PutMulti(src, vals) }))
		nWrite += float64(len(src))
	}
	L["pgas.getmulti_ns_per_src"] = reads / nRead
	L["pgas.putmulti_ns_per_src"] = writes / nWrite
	L["pgas.snapshot_us"] = us(perOp(func() { snap = a.Snapshot() }))
	// One task's writes between captures, as between two checkpoints.
	var delta []float64
	for gi := range tasks {
		if src := tasks[gi].Sources; len(src) > 0 {
			vals := buf[:len(src)*model.ParamDim]
			a.View(0).GetMulti(src, vals)
			a.View(0).PutMulti(src, vals)
			t0 := time.Now()
			snap = a.SnapshotDelta(snap)
			delta = append(delta, us(time.Since(t0)))
		}
	}
	L["pgas.snapshot_delta_us"] = medianOf(delta)
}

// netLanes: encode and decode of task-shaped Params frames, the bytes a task
// puts on the wire, and round trips against a coordinator on loopback.
func netLanes(L ledger, rp *replayed, tasks []partition.Task) error {
	var enc, dec, frames, wire float64
	sets := append([][]int(nil), rp.readSets...)
	sort.Slice(sets, func(i, j int) bool { return len(sets[i]) < len(sets[j]) })
	typical := sets[len(sets)/2] // the median-sized read set
	for gi, idx := range rp.readSets {
		if len(idx) == 0 {
			continue
		}
		m := &cnet.Message{Type: cnet.MsgParams, Values: make([]float64, len(idx)*model.ParamDim)}
		var buf bytes.Buffer
		enc += float64(perOp(func() { buf.Reset(); cnet.WriteMessage(&buf, m) }))
		raw := buf.Bytes()
		dec += float64(perOp(func() { cnet.ReadMessage(bytes.NewReader(raw)) }))
		frames++
		// A task's traffic: pull and assignment, the read and its reply, the
		// write, the completion.
		u := make([]uint64, len(idx))
		src := tasks[gi].Sources
		for _, frame := range []*cnet.Message{
			{Type: cnet.MsgTaskReq}, {Type: cnet.MsgTask}, {Type: cnet.MsgGet, Indices: u}, m,
			{Type: cnet.MsgPut, Indices: u[:len(src)], Values: m.Values[:len(src)*model.ParamDim]},
			{Type: cnet.MsgTaskDone},
		} {
			buf.Reset()
			if err := cnet.WriteMessage(&buf, frame); err != nil {
				return err
			}
			wire += float64(buf.Len())
		}
	}
	L["net.encode_ns_per_frame"] = enc / frames
	L["net.decode_ns_per_frame"] = dec / frames
	L["net.bytes_per_task"] = wire / frames

	be := &arrays{cur: rp.final}
	be.setStage(rp.final)
	cl, stop, err := dialStub(be, uint64(len(tasks)))
	if err != nil {
		return err
	}
	defer stop()
	out := make([]float64, len(typical)*model.ParamDim)
	L["net.getmulti_rtt_us"] = us(perOp(func() { err = cl.GetMulti(typical, out) }))
	if err != nil {
		return err
	}
	L["net.nexttask_rtt_us"] = us(perOp(func() { _, _, err = cl.NextTask() }))
	return err
}

// cycladesLanes: conflict graph and batch plan of every task's sources, as
// core.Process builds them at the start of a task.
func cycladesLanes(L ledger, init []model.CatalogEntry, tasks []partition.Task, pixScale float64) {
	var pl cyclades.Planner
	var g cyclades.Graph
	var total time.Duration
	var comps, batches, planned float64
	for _, t := range tasks {
		n := len(t.Sources)
		if n == 0 {
			continue
		}
		pos, radii := make([]geom.Pt2, n), make([]float64, n)
		for i, s := range t.Sources {
			pos[i] = init[s].Pos
			radii[i] = core.InfluenceRadiusPx(&init[s], pixScale) * pixScale
		}
		var bs []cyclades.Batch
		total += perOp(func() {
			pl.BuildConflictGraph(&g, pos, radii)
			bs = pl.Plan(&g, rng.New(cliSeed), max(int(0.34*float64(n)), 1)) // core's default batch share
		})
		for _, b := range bs {
			comps += float64(len(b.Components))
		}
		batches += float64(len(bs))
		planned++
	}
	L["cyclades.plan_us_per_task"] = us(total) / planned
	L["cyclades.components_per_batch"] = comps / batches
}

// fitLanes: cold single-thread fits of a seeded sample of at most 32
// sources, each on the problem elbo.Builder builds for it with its
// neighbours folded in, and the three evaluation tiers at the starting point
// of each. The optimizer's own share of a fit is the fit's wall clock minus
// the time vi reports inside objective evaluations.
func fitLanes(L ledger, rec *recorder, sv *survey.Survey, init []model.CatalogEntry,
	tasks []partition.Task, runVisits int64, taskSum time.Duration) {

	priors := model.FitPriors(init)
	pixScale := sv.Config.PixScale
	sample := rng.New(cliSeed).Perm(len(init))
	if len(sample) > 32 {
		sample = sample[:32]
	}
	home := map[int]*partition.Task{} // a source's stage-0 task
	for gi := range tasks {
		if tasks[gi].Stage == 0 {
			for _, s := range tasks[gi].Sources {
				home[s] = &tasks[gi]
			}
		}
	}
	// A source's first fit in a two-sweep task runs one rung up core's
	// tolerance ladder (a factor 30 per remaining sweep).
	coldFit := vi.Options{MaxIter: cliMaxIter, GradTol: 30 * vi.DefaultGradTol}
	var bld elbo.Builder
	fit := vi.NewScratch()
	serial, par := elbo.NewScratch(), elbo.NewScratch()
	par.SetWorkers(2)

	var fitMS, buildUS []float64
	var fitS, evalS, iters, full, grad, value, fitVisits, patches, problems float64
	var tier, tierVisits [3]float64
	var fullSerial, fullPar float64
	for _, i := range sample {
		t := home[i]
		if t == nil {
			continue
		}
		e := &init[i]
		images := sv.ImagesInBox(t.Box.Expand(35 * pixScale)) // the task's frames, as ExecTask selects them
		radius := core.InfluenceRadiusPx(e, pixScale)
		var pb *elbo.Problem
		id := rec.begin("elbo.build", 0)
		pb = bld.Build(&priors, images, e.Pos, radius)
		for j := range init {
			reach := (radius + core.InfluenceRadiusPx(&init[j], pixScale)) * pixScale
			if j != i && geom.Dist(e.Pos, init[j].Pos) < reach {
				nb := model.InitialParams(&init[j])
				c := nb.Constrained()
				bld.AddNeighbor(&c)
			}
		}
		buildUS = append(buildUS, us(rec.end(id)))
		if len(pb.Patches) == 0 {
			continue
		}
		problems++
		patches += float64(len(pb.Patches))
		theta := model.InitialParams(e)

		var r vi.FitResult
		d := rec.time("vi.fit", 0, func() { r = vi.FitWith(pb, theta, coldFit, fit) })
		fitMS = append(fitMS, ms(d))
		fitS, evalS = fitS+r.TotalSeconds, evalS+r.EvalSeconds
		iters, full, grad, value = iters+float64(r.Iters), full+float64(r.FullEvals), grad+float64(r.GradEvals), value+float64(r.ValEvals)
		fitVisits += float64(r.Visits)

		var visits int64
		for k, eval := range []func(){
			func() { visits = pb.EvalInto(&theta, serial).Visits },
			func() { visits = pb.EvalGradInto(&theta, serial).Visits },
			func() { _, visits = pb.EvalValueWith(&theta, serial) },
		} {
			tier[k] += float64(perOp(eval))
			tierVisits[k] += float64(visits)
		}
		fullSerial += float64(perOp(func() { pb.EvalInto(&theta, serial) }))
		fullPar += float64(perOp(func() { pb.EvalInto(&theta, par) }))
	}
	sort.Float64s(fitMS)
	L["vi.fit_ms_p50"] = percentile(fitMS, 50)
	L["vi.fit_ms_p90"] = percentile(fitMS, 90)
	L["vi.iters_per_fit"] = iters / problems
	L["vi.full_evals_per_fit"] = full / problems
	L["vi.grad_evals_per_fit"] = grad / problems
	L["vi.value_evals_per_fit"] = value / problems
	// The run's fits, priced at the sample's seconds per visit, as a share
	// of the replay's task time.
	L["vi.fit_share"] = fitS / fitVisits * float64(runVisits) / taskSum.Seconds()
	L["opt.self_us_per_iter"] = (fitS - evalS) * 1e6 / iters
	L["opt.self_share"] = (fitS - evalS) / fitS
	L["elbo.build_us"] = medianOf(buildUS)
	L["elbo.patches_per_problem"] = patches / problems
	L["elbo.visits_per_eval"] = tierVisits[0] / problems
	L["elbo.full_ns_per_visit"] = tier[0] / tierVisits[0]
	L["elbo.grad_ns_per_visit"] = tier[1] / tierVisits[1]
	L["elbo.value_ns_per_visit"] = tier[2] / tierVisits[2]
	L["elbo.par2_speedup_full"] = fullSerial / fullPar
}

// mogLanes: the three row kernels on 64-pixel rows through a galaxy's
// appearance under one of the workload's PSFs.
func mogLanes(L ledger, im *survey.Image, init []model.CatalogEntry) {
	gal := &init[0]
	for i := range init {
		if init[i].IsGal() {
			gal = &init[i]
			break
		}
	}
	p := model.InitialParams(gal)
	c := p.Constrained()
	jac := model.JacFromWCS(im.WCS)
	ev := mog.NewEvaluator(im.PSF, galprof.Exponential(), galprof.DeVaucouleurs(),
		p[model.ParamGalDevLogit], p[model.ParamGalABLogit], p[model.ParamGalAngle], p[model.ParamGalLogScale], jac)
	comps := mog.CompileInto(nil, mog.GalaxyMixture(im.PSF, galprof.Exponential(), c.GalAxisRatio, c.GalAngle, c.GalScale, jac))
	const width, rows = 64, 17
	dxs := make([]float64, width)
	for i := range dxs {
		dxs[i] = float64(i) - width/2 + 0.3
	}
	lanes := mog.GetRowLanes()
	defer mog.PutRowLanes(lanes)
	lanes.Resize(width)
	dst := make([]float64, width)
	sweep := func(row func(dy float64)) float64 {
		d := perOp(func() {
			for y := 0; y < rows; y++ {
				row(float64(y) - rows/2 + 0.4)
			}
		})
		return float64(d) / (width * rows)
	}
	L["mog.sweeprow_ns_per_px"] = sweep(func(dy float64) { ev.SweepRow(lanes, dxs, dy) })
	L["mog.sweeprowgrad_ns_per_px"] = sweep(func(dy float64) { ev.SweepRowGrad(lanes, dxs, dy) })
	L["mog.sweeprowvalue_ns_per_px"] = sweep(func(dy float64) { mog.SweepRowValue(dst, comps, dxs, dy) })
}
