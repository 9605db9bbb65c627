// A rank's work loop and the two links it runs over. Every run has one state
// machine (serveBackend); a rank is whatever pulls tasks from it, executes
// them, and commits them. Goroutine ranks reach it by direct call (localLink)
// and worker processes over the wire (*cnet.Client) — the loop body between
// the pull and the commit is the same function either way.
package core

import (
	"fmt"
	"sync"

	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/partition"
	"celeste/internal/pgas"
	"celeste/internal/survey"
)

// rankLink is how a rank reaches the run's backend: the task pull, the
// commit, and the parameter traffic ExecTask issues in between.
type rankLink interface {
	// NextTask blocks until the rank has a task (ok) or the run is over for
	// it (!ok; err tells an aborted run from a completed one).
	NextTask() (task int, ok bool, err error)
	TaskDone(task int, stats [3]uint64) error
	pgas.Getter
	pgas.Putter
}

var _ rankLink = (*cnet.Client)(nil)

// rankInputs is everything a rank derives from the run's inputs once and
// then executes any of its tasks with.
type rankInputs struct {
	cfg     Config
	sv      *survey.Survey
	catalog []model.CatalogEntry
	priors  *model.Priors
	tasks   []partition.Task
}

// step is one turn of a rank's work loop: pull a task over the link, execute
// it against the link's parameter traffic, commit it. more=false with a nil
// error means the run is over for this rank. onTask (optional) observes the
// assignment before execution; its error ends the loop with the task unrun.
func (in *rankInputs) step(l rankLink, onTask func(task int) error) (more bool, err error) {
	g, ok, err := l.NextTask()
	if err != nil || !ok {
		return false, err
	}
	if g < 0 || g >= len(in.tasks) {
		return false, &workerSetupError{fmt.Errorf(
			"core: backend assigned task %d of %d", g, len(in.tasks))}
	}
	if onTask != nil {
		if err := onTask(g); err != nil {
			return false, err
		}
	}
	stats, err := in.cfg.ExecTask(in.sv, in.catalog, in.priors, &in.tasks[g], l, l)
	if err != nil {
		return false, err
	}
	return true, l.TaskDone(g, [3]uint64{
		uint64(stats.Fits), uint64(stats.NewtonIters), uint64(stats.Visits),
	})
}

// localLink is the in-process link: no wire and no encode. Scheduling goes
// through the backend's own methods; parameter traffic stays on the rank's
// shared-memory views, which is safe without the backend lock because after
// setup only the stage swap replaces an array, and it needs every task — this
// rank's included — committed. A goroutine rank never dies: faults reach a
// run only through a worker's connection.
type localLink struct {
	b    *serveBackend
	rank int
}

func (l *localLink) NextTask() (int, bool, error) {
	g, status := l.b.Next(l.rank)
	if status != cnet.NextTask {
		return 0, false, nil // complete or aborted: the run's epilogue says which
	}
	return g, true, nil
}

func (l *localLink) TaskDone(g int, stats [3]uint64) error {
	l.b.Commit(l.rank, g, stats)
	return nil
}

func (l *localLink) GetMulti(idx []int, out []float64) error {
	return l.b.st.prev.View(l.rank).GetMulti(idx, out)
}

func (l *localLink) PutMulti(idx []int, vals []float64) error {
	return l.b.st.cur.View(l.rank).PutMulti(idx, vals)
}

// runRanks runs the backend's static complement as goroutines in this
// process and returns when every one of them has been told the run is over.
func (b *serveBackend) runRanks(in *rankInputs) {
	var wg sync.WaitGroup
	for rank := 0; rank < b.procs; rank++ {
		wg.Add(1)
		go func(l *localLink) {
			defer wg.Done()
			for {
				more, err := in.step(l, nil)
				if err != nil {
					// Local views and direct calls never fail; an error here
					// is a programming bug.
					panic(err)
				}
				if !more {
					return
				}
			}
		}(&localLink{b: b, rank: rank})
	}
	wg.Wait()
}
