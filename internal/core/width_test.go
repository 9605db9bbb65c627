package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"celeste/internal/model"
	cnet "celeste/internal/net"
	"celeste/internal/pgas"
)

// The wire and the checkpoint carry the parameter width as data, so a peer
// or a checkpoint from a build with another ParamDim decodes fine and must be
// refused by the width checks. 44 is the paper's count, with the color-prior
// responsibilities and both type logits; 28 is the layout of numerics
// revisions 3 to 7, with both type logits.
var foreignWidths = []int{44, 28}

// TestWorkerRefusesForeignWidth: a coordinator whose Welcome advertises
// another width fails the worker with the named width error, before the
// worker regenerates the run or sends Ready.
func TestWorkerRefusesForeignWidth(t *testing.T) {
	for _, w := range foreignWidths {
		t.Run(fmt.Sprint(w), func(t *testing.T) { workerRefusesWidth(t, w) })
	}
}

func workerRefusesWidth(t *testing.T, foreignWidth int) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		c.SetDeadline(time.Now().Add(10 * time.Second))
		if m, err := cnet.ReadMessage(c); err != nil || m.Type != cnet.MsgHello {
			served <- fmt.Errorf("want Hello, got %v (%v)", m, err)
			return
		}
		if err := cnet.WriteMessage(c, &cnet.Message{Type: cnet.MsgWelcome, Welcome: &cnet.RunConfig{
			Workers: 1, Width: uint32(foreignWidth), Rounds: 1, MaxIter: 4, NTasks: 1, RunHash: 1,
		}}); err != nil {
			served <- err
			return
		}
		// The worker must hang up rather than answer with Ready.
		if m, err := cnet.ReadMessage(c); err == nil {
			served <- fmt.Errorf("worker answered the foreign Welcome with message type %d", m.Type)
			return
		}
		served <- nil
	}()

	err = RunWorker(l.Addr().String(), nil, nil, WorkerOptions{DialTimeout: 5 * time.Second})
	var setup *workerSetupError
	if !errors.As(err, &setup) {
		t.Fatalf("RunWorker returned %v, want a workerSetupError", err)
	}
	want := fmt.Sprintf("coordinator parameters have width %d, this build has %d", foreignWidth, model.ParamDim)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the width mismatch (%q)", err, want)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestRestoreRefusesForeignWidth: a checkpoint whose arrays hold another
// width is refused by restore even when its hash matches the run, while the
// same checkpoint at ParamDim restores.
func TestRestoreRefusesForeignWidth(t *testing.T) {
	const procs, nSources, nTasks = 2, 4, 3
	ckAt := func(width int) *Checkpoint {
		a := pgas.New(nSources, width, procs)
		return &Checkpoint{Hash: 0xfeed, Done: make([]bool, nTasks), Cur: a.Snapshot(), StageStart: a.Snapshot()}
	}
	if err := (&runState{hash: 0xfeed}).restore(ckAt(model.ParamDim), nSources, procs, nTasks); err != nil {
		t.Fatalf("control: a %d-wide checkpoint was refused: %v", model.ParamDim, err)
	}
	for _, w := range foreignWidths {
		err := (&runState{hash: 0xfeed}).restore(ckAt(w), nSources, procs, nTasks)
		want := fmt.Sprintf("checkpoint holds %dx%d parameters, run needs %dx%d", nSources, w, nSources, model.ParamDim)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("width %d: restore returned %v, want the width refusal %q", w, err, want)
		}
	}
}
