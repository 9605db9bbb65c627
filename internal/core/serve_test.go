package core

import (
	"testing"

	"celeste/internal/model"
	"celeste/internal/pgas"
)

// TestAdmitJoinerLeavesArraysInPlace: a rank minted past the static
// complement owns no PGAS shard. Join grows only the scheduler and the rank
// table, so the live and frozen arrays (and the frozen snapshot checkpoints
// share) keep their identity, the joiner's backend Get/Put reach the same
// arrays as everyone else's, and the next checkpoint still captures cur as a
// delta against the previous one instead of copying every shard.
func TestAdmitJoinerLeavesArraysInPlace(t *testing.T) {
	const procs, nSources, w = 2, 6, model.ParamDim
	st := &runState{
		done: make([]bool, 2),
		cur:  pgas.New(nSources, w, procs),
	}
	val := make([]float64, w)
	for i := 0; i < nSources; i++ {
		for k := range val {
			val[k] = float64(i*100 + k)
		}
		st.cur.Put(0, i, val)
	}
	st.freezeStage(0)
	b := newBackend(procs, [][]int{{0, 1}}, st)

	st.mu.Lock()
	before := st.captureLocked()
	st.mu.Unlock()
	cur, prev, prevSnap := st.cur, st.prev, st.prevSnap

	rank, ok := b.Join()
	if !ok || rank != procs {
		t.Fatalf("Join: rank=%d ok=%v, want rank %d admitted", rank, ok, procs)
	}
	if st.cur != cur || st.prev != prev || st.prevSnap != prevSnap {
		t.Error("Join replaced an array or the frozen snapshot")
	}

	st.mu.Lock()
	after := st.captureLocked()
	st.mu.Unlock()
	for r := range before.Cur.Shards {
		if &after.Cur.Shards[r][0] != &before.Cur.Shards[r][0] {
			t.Errorf("capture after Join copied unchanged shard %d instead of sharing it", r)
		}
	}

	// The joiner reads the frozen stage input and writes the live array.
	idx := []uint64{5, 0}
	out := make([]float64, len(idx)*w)
	if err := b.Get(rank, idx, out); err != nil {
		t.Fatal(err)
	}
	for k, i := range idx {
		if got, want := out[k*w+1], float64(int(i)*100+1); got != want {
			t.Errorf("joiner Get of element %d read %v, want %v", i, got, want)
		}
	}
	_, remote0 := st.cur.Stats()
	vals := make([]float64, len(idx)*w)
	for k := range vals {
		vals[k] = -float64(k + 1)
	}
	if err := b.Put(rank, idx, vals); err != nil {
		t.Fatal(err)
	}
	if _, remote1 := st.cur.Stats(); remote1 != remote0+int64(len(idx)) {
		t.Errorf("joiner Puts counted %d remote ops, want %d", remote1-remote0, len(idx))
	}
	for k, i := range idx {
		st.cur.Get(0, int(i), val)
		if val[0] != vals[k*w] || val[w-1] != vals[k*w+w-1] {
			t.Errorf("joiner Put of element %d left %v in the live array", i, val)
		}
		st.prev.Get(0, int(i), val)
		if val[0] != float64(int(i)*100) {
			t.Errorf("joiner Put of element %d reached the frozen array", i)
		}
	}
}
