// The run backend: the one state machine every run goes through. It owns
// task pull and steal over the Dtree scheduler, the idempotent commit with its
// checkpoint hook, requeue-on-death, the stage barrier with its frozen-input
// swap, the strand decision and the fault and membership accounting. Ranks
// reach it over one of two links (rank.go): goroutine ranks call it directly,
// worker processes through internal/net's coordinator, which speaks the wire
// protocol. The two kinds of run therefore differ only in that link, which is
// why their catalogs are byte-identical (the property the root-level
// differential tests enforce).
package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"celeste/internal/dtree"
	"celeste/internal/model"
	cnet "celeste/internal/net"
)

// newBackend builds the state machine of a (possibly resumed) run: the
// scheduler for the stage the run state is in, over the tasks not yet done.
func newBackend(procs int, stages [][]int, st *runState) *serveBackend {
	b := &serveBackend{
		procs:    procs,
		st:       st,
		stages:   stages,
		done:     make(chan struct{}),
		s:        st.stage,
		deadRank: make([]bool, procs),
	}
	b.wake.L = &b.mu
	for _, d := range st.done {
		if !d {
			b.totalLeft++
		}
	}
	b.setupStageLocked()
	if b.totalLeft == 0 {
		// Nothing to schedule (e.g. a checkpoint taken at the very end):
		// don't make workers connect for an empty run.
		b.finish()
	}
	return b
}

// serve puts the backend behind a TCP coordinator until the run is terminal:
// cfg.Processes worker processes are its ranks.
func (b *serveBackend) serve(tr *cnet.Transport, cfg Config, nTasks int) error {
	if tr.Listener == nil {
		return errors.New("core: Transport requires a Listener")
	}
	b.rejoinGrace = tr.RejoinGrace
	b.welcome = cnet.RunConfig{
		Workers:    uint32(cfg.Processes),
		Width:      model.ParamDim,
		Rounds:     uint32(cfg.Rounds),
		MaxIter:    uint32(cfg.Fit.MaxIter),
		NTasks:     uint64(nTasks),
		RunHash:    b.st.hash,
		Seed:       cfg.Seed,
		TargetWork: tr.TargetWork,
		GradTol:    cfg.Fit.GradTol,
	}
	return cnet.Serve(tr.Listener, b, cnet.ServeOptions{
		DeadAfter:    tr.DeadAfter,
		ConnectGrace: tr.ConnectGrace,
	})
}

// finishRun is the one epilogue of a run, whichever link its ranks used: it
// fills the fault and membership counters of the result and decides
// how the run ended. linkErr is the link's own failure (a listener error).
func (b *serveBackend) finishRun(res *RunResult, linkErr error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.graceTimer != nil {
		// The run ended some other way (completed, aborted, listener error)
		// with a grace window pending; don't let it fire into a dead run.
		b.graceTimer.Stop()
		b.graceTimer = nil
	}
	if b.sched != nil {
		b.foldSchedLocked()
	}
	res.FailedRanks = b.dead
	res.JoinedRanks = b.joined
	res.StolenTasks = int(b.stolen)
	res.RequeuedTasks = int(b.requeued)
	switch {
	case linkErr != nil:
		return linkErr
	case b.st.aborted.Load():
		b.st.mu.Lock()
		defer b.st.mu.Unlock()
		return b.st.abortErr
	case b.stranded != nil:
		return b.stranded
	case b.totalLeft > 0:
		return fmt.Errorf("core: run ended with %d tasks outstanding", b.totalLeft)
	}
	return nil
}

// serveBackend implements cnet.Backend over the run state. All scheduler
// access is serialized under mu, and so is the array access of wire ranks: at
// task granularity the traffic is a rounding error next to the optimization
// work, and serialization keeps the stage barrier (the frozen-input array
// swap) trivially safe against concurrent parameter reads.
//
// Lock order: mu strictly outside st.mu — commit (which takes st.mu and runs
// the checkpoint hook) is always called with mu released, and only the
// epilogue takes st.mu inside mu. wake, the condition a waiting pull sleeps
// on, lives on mu.
type serveBackend struct {
	procs   int
	st      *runState
	stages  [][]int
	welcome cnet.RunConfig

	mu        sync.Mutex
	wake      sync.Cond // broadcast whenever a pull that had to wait may have a new answer
	s         int       // current stage index into stages
	sched     *dtree.Scheduler
	idx       []int       // current stage's global task indices
	g2l       map[int]int // global -> stage-local for uncommitted tasks
	stageLeft int         // uncommitted tasks in the current stage
	totalLeft int         // uncommitted tasks in the whole run
	requeued  int64       // folded from retired stage schedulers
	stolen    int64       // folded from retired stage schedulers
	dead      int         // retired ranks
	joined    int         // ranks minted past the static complement
	stranded  error

	// A retired rank stays dead for the rest of the run — the node is gone.
	// Indexed by rank; grows with Join.
	deadRank []bool

	// rejoinGrace is Transport.RejoinGrace: how long an all-dead run waits
	// for a re-enrollment before stranding. graceTimer is the
	// pending expiry check for the current all-dead episode, nil otherwise.
	rejoinGrace time.Duration
	graceTimer  *time.Timer

	done      chan struct{}
	closeOnce sync.Once
}

var _ cnet.Backend = (*serveBackend)(nil)

func (b *serveBackend) Welcome() cnet.RunConfig { return b.welcome }

func (b *serveBackend) Done() <-chan struct{} { return b.done }

func (b *serveBackend) finish() { b.closeOnce.Do(func() { close(b.done) }) }

// setupStageLocked builds the scheduler for stage b.s over the tasks not yet
// done, excluding ranks that already died. Caller holds mu (or is still
// single-threaded during setup).
func (b *serveBackend) setupStageLocked() {
	idx := b.stages[b.s]
	b.idx = idx
	b.g2l = make(map[int]int, len(idx))
	doneSub := make([]bool, len(idx))
	remaining := 0
	for j, gi := range idx {
		doneSub[j] = b.st.done[gi]
		if !doneSub[j] {
			remaining++
			b.g2l[gi] = j
		}
	}
	b.stageLeft = remaining
	b.sched = dtree.NewResumed(dtree.Config{}, b.procs, len(idx), doneSub)
	for rank, dead := range b.deadRank {
		if dead {
			b.sched.Fail(rank)
		}
	}
}

// foldSchedLocked retires the current scheduler, folding its requeue and
// steal counts into the run's exactly once.
func (b *serveBackend) foldSchedLocked() {
	b.requeued += b.sched.Requeued()
	b.stolen += b.sched.Stolen()
	b.sched = nil
}

// advanceLocked moves to the next stage: the live array becomes the frozen
// input, and a fresh scheduler distributes the next stage's tasks. Caller
// holds mu, and the caller has established stageLeft == 0 — every task of the
// finished stage is committed, so no rank, on either link, can be holding or
// still reading stale stage input.
func (b *serveBackend) advanceLocked() {
	b.foldSchedLocked()
	b.s++
	if b.s < len(b.stages) {
		b.st.freezeStage(b.s)
		b.setupStageLocked()
	}
	b.wake.Broadcast()
}

// Next is the task hand-out, the same call on both links. A rank whose own
// pool (and ancestor chain) is dry steals half the most-loaded live rank's
// undistributed pool — only pooled tasks move, in-flight work is never
// duplicated, so the catalog stays byte-identical regardless of who executes
// what. With nothing to steal either but uncommitted tasks riding on other
// ranks (one may die and requeue them, or the stage may end), the pull sleeps
// on wake until it has a task or a terminal answer.
func (b *serveBackend) Next(rank int) (int, cnet.NextStatus) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.st.aborted.Load() || b.stranded != nil {
			b.finish()
			return 0, cnet.NextAbort
		}
		if rank < 0 || rank >= b.procs || b.deadRank[rank] {
			return 0, cnet.NextShutdown
		}
		if b.s >= len(b.stages) {
			b.finish()
			return 0, cnet.NextShutdown
		}
		j, ok := b.sched.Next(rank)
		if !ok {
			j, ok = b.sched.Steal(rank)
		}
		switch {
		case ok:
			return b.idx[j], cnet.NextTask
		case b.stageLeft == 0:
			b.advanceLocked()
		default:
			b.wake.Wait()
		}
	}
}

// Commit finalizes one task exactly once. The done bit and checkpoint hook
// run via st.commit BEFORE the stage-left counter drops, so the stage cannot
// advance (and no checkpoint can claim the next stage) until the task is
// durably committed.
func (b *serveBackend) Commit(rank, g int, stats [3]uint64) {
	b.mu.Lock()
	j, fresh := b.g2l[g]
	if fresh {
		delete(b.g2l, g)
	}
	b.mu.Unlock()
	if !fresh {
		return // duplicate or unknown: commits are idempotent
	}
	b.st.commit(g, Stats{
		Fits:        int64(stats[0]),
		NewtonIters: int64(stats[1]),
		Visits:      int64(stats[2]),
	})
	b.mu.Lock()
	// A fresh commit implies stageLeft > 0, so the stage (and its
	// scheduler) cannot have advanced since the g2l lookup.
	b.sched.Done(rank, j)
	b.stageLeft--
	b.totalLeft--
	fin := b.totalLeft == 0
	// The stage may be over, the run may be over, or the hook may have
	// aborted it: every blocked pull may have a new answer.
	b.wake.Broadcast()
	b.mu.Unlock()
	if fin {
		b.finish()
	}
}

// Fail retires a dead rank: its in-flight tasks and undistributed pool
// requeue to a live ancestor, and the rank stays dead for the rest of the
// run. Only the coordinator calls it, when a worker's connection ends (a
// crash, a hang, a reset link, or a worker that simply exited): goroutine
// ranks never die.
func (b *serveBackend) Fail(rank int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Bounds check under mu: procs grows when workers join.
	if rank < 0 || rank >= b.procs || b.deadRank[rank] {
		return
	}
	b.deadRank[rank] = true
	b.dead++
	if b.sched != nil {
		b.sched.Fail(rank)
	}
	b.wake.Broadcast() // the requeued tasks are some blocked rank's to pull
	if b.rejoinGrace > 0 && b.allDeadLocked() {
		// Every rank is dead but the listener is still open: hold the run
		// for one bounded window so a worker with rejoin budget can
		// re-enroll and rescue it. A Join during the window grows procs,
		// making the expiry check a no-op; nobody returning is a permanent
		// partition and strands then.
		if b.graceTimer == nil {
			b.graceTimer = time.AfterFunc(b.rejoinGrace, func() {
				b.mu.Lock()
				defer b.mu.Unlock()
				b.graceTimer = nil
				b.strandIfAllDeadLocked(fmt.Sprintf(" and none re-enrolled within %v", b.rejoinGrace))
			})
		}
		return
	}
	b.strandIfAllDeadLocked("")
}

// allDeadLocked reports an unfinished run with no rank left to finish it.
func (b *serveBackend) allDeadLocked() bool {
	return b.dead == b.procs && b.totalLeft > 0 && b.stranded == nil
}

// strandIfAllDeadLocked is the run's one strand decision: with every rank
// dead and tasks outstanding, the run ends with the stranded diagnostic. A
// rescue (a Join) inside a grace window grew procs past the dead count,
// and a later total-death episode arms a fresh timer.
func (b *serveBackend) strandIfAllDeadLocked(detail string) {
	if !b.allDeadLocked() {
		return
	}
	b.stranded = fmt.Errorf("core: %d tasks stranded in stage %d: every rank of %d is dead%s",
		b.totalLeft, b.s, b.procs, detail)
	b.wake.Broadcast()
	b.finish()
}

// Join admits a worker mid-run with a fresh rank past the current
// complement. The scheduler grows an (empty-pooled) leaf the joiner steals
// into, and the rank table grows an entry; nothing else changes. The PGAS
// arrays stay as laid out at setup (the paper's fixed layout, §IV-C): the
// joiner owns no shard, and its Get and Put, which reach the arrays only
// through this backend, count as remote traffic. A terminal run (completed,
// aborted, or stranded) refuses the join, and the coordinator shuts the late
// dialer down with the run's real outcome instead of a hang.
func (b *serveBackend) Join() (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.st.aborted.Load() || b.totalLeft == 0 || b.s >= len(b.stages) || b.stranded != nil {
		return 0, false
	}
	rank := b.procs
	b.procs++
	b.deadRank = append(b.deadRank, false)
	b.joined++
	if b.sched != nil {
		b.sched.Join()
	}
	return rank, true
}

// Get serves stage-input elements from the frozen array with the worker's
// rank as the traffic-accounting caller, exactly as the in-process views do.
func (b *serveBackend) Get(rank int, idx []uint64, out []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rank < 0 || rank >= b.procs || b.deadRank[rank] {
		return fmt.Errorf("core: rank %d is retired", rank)
	}
	w := model.ParamDim
	n := uint64(b.st.prev.N())
	for k, i := range idx {
		if i >= n {
			return fmt.Errorf("core: get of element %d outside [0,%d)", i, n)
		}
		b.st.prev.Get(rank, int(i), out[k*w:(k+1)*w])
	}
	return nil
}

// Put writes result elements into the live array.
func (b *serveBackend) Put(rank int, idx []uint64, vals []float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rank < 0 || rank >= b.procs || b.deadRank[rank] {
		return fmt.Errorf("core: rank %d is retired", rank)
	}
	w := model.ParamDim
	n := uint64(b.st.cur.N())
	for k, i := range idx {
		if i >= n {
			return fmt.Errorf("core: put of element %d outside [0,%d)", i, n)
		}
		b.st.cur.Put(rank, int(i), vals[k*w:(k+1)*w])
	}
	return nil
}
