package core

import (
	"testing"

	"celeste/internal/model"
	"celeste/internal/pgas"
)

// TestJoinRefusedOnRepartitionError: admission past the complement must be
// all-or-nothing. Pre-fix, serveBackend.Join grew the rank space and then
// silently swallowed RepartitionRanks/Repartition errors, admitting a rank
// with no shard view in the live/frozen arrays — every Get proxied for that
// rank would have served wrong answers. A failing repartition must refuse
// the join and leave the run state untouched.
func TestJoinRefusedOnRepartitionError(t *testing.T) {
	const procs, nSources, nTasks = 2, 4, 2
	mk := func() (*runState, *serveBackend) {
		st := &runState{
			done:     make([]bool, nTasks),
			deadRank: make([]bool, procs),
			cur:      pgas.New(nSources, model.ParamDim, procs),
		}
		st.freezeStage(0)
		b := &serveBackend{
			procs:     procs,
			st:        st,
			stages:    [][]int{{0, 1}},
			done:      make(chan struct{}),
			totalLeft: nTasks,
		}
		b.setupStageLocked()
		return st, b
	}

	// Control: a healthy run admits the joiner with the next rank.
	if _, b := mk(); true {
		if rank, ok := b.Join(); !ok || rank != procs {
			t.Fatalf("healthy join: rank=%d ok=%v, want rank=%d admitted", rank, ok, procs)
		}
	}

	// Corrupt the frozen stage snapshot so its Repartition fails validation
	// (shard count no longer matches its rank count) — the same shape a
	// torn checkpoint restore would produce.
	st, b := mk()
	st.prevSnap.Shards = st.prevSnap.Shards[:1]
	if rank, ok := b.Join(); ok {
		t.Fatalf("join admitted rank %d despite a failing repartition", rank)
	}
	if b.procs != procs {
		t.Errorf("refused join grew procs to %d, want %d untouched", b.procs, procs)
	}
	if len(st.deadRank) != procs {
		t.Errorf("refused join grew rank bookkeeping to %d entries, want %d",
			len(st.deadRank), procs)
	}
	if got := st.cur.Snapshot().Ranks; got != procs {
		t.Errorf("refused join repartitioned the live array to %d ranks, want %d", got, procs)
	}
	if got := st.prev.Snapshot().Ranks; got != procs {
		t.Errorf("refused join repartitioned the frozen array to %d ranks, want %d", got, procs)
	}
}
