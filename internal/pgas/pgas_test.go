package pgas

import (
	"sync"
	"testing"
	"testing/quick"

	"celeste/internal/rng"
)

func TestReadYourWrites(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + int(seed%100)
		width := 1 + int(seed%8)
		ranks := 1 + int(seed%7)
		a := New(n, width, ranks)
		val := make([]float64, width)
		out := make([]float64, width)
		for trial := 0; trial < 50; trial++ {
			i := r.Intn(n)
			for k := range val {
				val[k] = r.Normal()
			}
			a.Put(0, i, val)
			a.Get(0, i, out)
			for k := range val {
				if out[k] != val[k] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOwnershipPartition(t *testing.T) {
	a := New(100, 4, 7)
	counts := make([]int, 7)
	prev := 0
	for i := 0; i < 100; i++ {
		o := a.Owner(i)
		if o < 0 || o >= 7 {
			t.Fatalf("owner(%d) = %d", i, o)
		}
		if o < prev {
			t.Fatalf("ownership not contiguous at %d", i)
		}
		prev = o
		counts[o]++
	}
	// Block distribution: every rank except possibly the last has ceil(n/r).
	for r := 0; r < 6; r++ {
		if counts[r] != 15 && counts[r] != 10 {
			t.Errorf("rank %d owns %d elements", r, counts[r])
		}
	}
}

func TestConcurrentDisjointPuts(t *testing.T) {
	n := 64
	a := New(n, 2, 8)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.Put(i%8, i, []float64{float64(i), float64(2 * i)})
		}(i)
	}
	wg.Wait()
	out := make([]float64, 2)
	for i := 0; i < n; i++ {
		a.Get(0, i, out)
		if out[0] != float64(i) || out[1] != float64(2*i) {
			t.Fatalf("element %d = %v", i, out)
		}
	}
}

func TestTrafficAccounting(t *testing.T) {
	a := New(100, 4, 4)
	// Element 0 is owned by rank 0.
	a.Get(0, 0, make([]float64, 4))  // local
	a.Get(3, 0, make([]float64, 4))  // remote
	a.Put(3, 0, make([]float64, 4))  // remote
	a.Get(4, 99, make([]float64, 4)) // a rank past the owners: remote
	local, remote := a.Stats()
	if local != 1 {
		t.Errorf("local = %d, want 1", local)
	}
	if remote != 3 {
		t.Errorf("remote = %d, want 3", remote)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	a := New(10, 1, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range index")
		}
	}()
	a.Get(0, 10, make([]float64, 1))
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	a := New(13, 3, 4)
	val := make([]float64, 3)
	for i := 0; i < 13; i++ {
		for k := range val {
			val[k] = float64(i*3 + k)
		}
		a.Put(0, i, val)
	}
	snap := a.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}

	// Mutate, then restore, then verify the original contents came back.
	a.Put(2, 5, []float64{-1, -2, -3})
	a.Put(1, 9, []float64{100, 100, 100})
	if err := a.Restore(snap); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	for i := 0; i < 13; i++ {
		a.Get(0, i, out)
		for k := range out {
			if out[k] != float64(i*3+k) {
				t.Fatalf("element %d = %v after restore", i, out)
			}
		}
	}

	// A reconstructed array matches too.
	b, err := FromSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	bo := make([]float64, 3)
	for i := 0; i < 13; i++ {
		b.Get(0, i, bo)
		a.Get(0, i, out)
		for k := range out {
			if bo[k] != out[k] {
				t.Fatalf("FromSnapshot element %d differs", i)
			}
		}
	}
}

func TestSnapshotVersionsAdvance(t *testing.T) {
	a := New(8, 2, 2)
	s0 := a.Snapshot()
	a.Put(0, 0, []float64{1, 2})
	a.Put(0, 7, []float64{3, 4}) // other shard
	a.Put(0, 0, []float64{2, 3})
	s1 := a.Snapshot()
	if s1.Versions[0] != s0.Versions[0]+2 {
		t.Errorf("shard 0 version advanced by %d, want 2", s1.Versions[0]-s0.Versions[0])
	}
	if s1.Versions[1] != s0.Versions[1]+1 {
		t.Errorf("shard 1 version advanced by %d, want 1", s1.Versions[1]-s0.Versions[1])
	}
	// Restore brings the version counter back as well.
	if err := a.Restore(s0); err != nil {
		t.Fatal(err)
	}
	s2 := a.Snapshot()
	if s2.Versions[0] != s0.Versions[0] || s2.Versions[1] != s0.Versions[1] {
		t.Error("restore did not reset shard versions")
	}
}

func TestSnapshotRepartition(t *testing.T) {
	for _, tc := range []struct{ n, from, to int }{
		{20, 3, 5}, {20, 5, 3}, {7, 7, 1}, {7, 1, 7}, {1, 4, 4},
	} {
		a := New(tc.n, 2, tc.from)
		for i := 0; i < tc.n; i++ {
			a.Put(0, i, []float64{float64(i), float64(-i)})
		}
		rs, err := a.Snapshot().Repartition(tc.to)
		if err != nil {
			t.Fatal(err)
		}
		b, err := FromSnapshot(rs)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, 2)
		for i := 0; i < tc.n; i++ {
			b.Get(0, i, out)
			if out[0] != float64(i) || out[1] != float64(-i) {
				t.Fatalf("n=%d %d->%d ranks: element %d = %v", tc.n, tc.from, tc.to, i, out)
			}
		}
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	a := New(10, 2, 2)
	s := a.Snapshot()
	b := New(10, 3, 2)
	if err := b.Restore(s); err == nil {
		t.Error("restore accepted a width mismatch")
	}
	s.Shards[0] = s.Shards[0][:1]
	if err := a.Restore(s); err == nil {
		t.Error("restore accepted a corrupted shard length")
	}
}

// TestStressConcurrentMixedOps hammers one array from many goroutine ranks
// with interleaved Get/Put plus snapshots, then settles the books: each
// rank's private elements must hold exactly its own last writes, and the op
// and byte counters must equal exactly what was issued. Run under -race in CI,
// this doubles as the PGAS memory-safety gate.
func TestStressConcurrentMixedOps(t *testing.T) {
	const (
		n       = 96
		width   = 4
		nRanks  = 8
		perRank = 2000
	)
	a := New(n, width, nRanks)
	// Elements [0, n/2) take shared Put/Get traffic; [n/2, n) are split
	// into one private block per rank, each element holding the count of
	// its owner's writes to it, so their totals are exactly predictable
	// despite interleaving.
	const private = n / 2 / nRanks
	var wg sync.WaitGroup
	for rank := 0; rank < nRanks; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			r := rng.New(uint64(rank) + 1)
			val := make([]float64, width)
			out := make([]float64, width)
			var writes [private]float64
			for op := 0; op < perRank; op++ {
				switch op % 3 {
				case 0:
					i := r.Intn(n / 2)
					for k := range val {
						val[k] = r.Normal()
					}
					a.Put(rank, i, val)
				case 1:
					i := r.Intn(n)
					a.Get(rank, i, out)
				case 2:
					j := r.Intn(private)
					writes[j]++
					for k := range val {
						val[k] = writes[j]
					}
					a.Put(rank, n/2+rank*private+j, val)
				}
				if op%500 == 0 {
					// Snapshots interleaved with writers must be internally
					// consistent per shard (and race-free).
					if err := a.Snapshot().Validate(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(rank)
	}
	wg.Wait()

	// Private totals: each rank issued perRank/3 (rounded) private writes;
	// the sum over the private elements must match exactly (float64 sums of
	// small integers are exact).
	accPerRank := perRank / 3
	out := make([]float64, width)
	var total float64
	for i := n / 2; i < n; i++ {
		a.Get(0, i, out)
		for _, v := range out {
			total += v
		}
	}
	want := float64(nRanks * accPerRank * width)
	if total != want {
		t.Errorf("private total %v, want %v", total, want)
	}

	// Counter settlement: ops issued = perRank*nRanks + the final reads.
	local, remote := a.Stats()
	wantOps := int64(nRanks*perRank + n/2)
	if local+remote != wantOps {
		t.Errorf("local+remote = %d, want %d", local+remote, wantOps)
	}
	if remote == 0 {
		t.Error("no remote traffic recorded despite cross-rank access")
	}
}

func TestSnapshotDeltaSharesUnchangedShards(t *testing.T) {
	a := New(8, 3, 4)
	buf := []float64{1, 2, 3}
	for i := 0; i < 8; i++ {
		a.Put(0, i, buf)
	}
	base := a.Snapshot()
	// Write only into rank 2's shard (elements 4,5 with 2 per rank).
	buf[0] = 42
	a.Put(0, 4, buf)
	delta := a.SnapshotDelta(base)
	if err := delta.Validate(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		shared := len(delta.Shards[r]) > 0 && len(base.Shards[r]) > 0 &&
			&delta.Shards[r][0] == &base.Shards[r][0]
		if r == 2 {
			if shared {
				t.Error("written shard aliases the previous snapshot")
			}
			if delta.Versions[r] != base.Versions[r]+1 {
				t.Errorf("written shard version %d, want %d", delta.Versions[r], base.Versions[r]+1)
			}
			if delta.Shards[r][0] != 42 {
				t.Error("written shard does not carry the new value")
			}
		} else {
			if !shared {
				t.Errorf("unchanged shard %d was copied, not shared", r)
			}
		}
	}
	// The shared shards are immutable: a later write must not leak into the
	// already-captured delta.
	buf[0] = 99
	a.Put(0, 0, buf)
	if delta.Shards[0][0] == 99 {
		t.Error("captured snapshot mutated by a later write")
	}
	// A geometry-mismatched prev forces a full copy, not a panic.
	full := a.SnapshotDelta(&Snapshot{N: 1, Width: 1, Ranks: 1,
		Shards: [][]float64{{0}}, Versions: []uint64{0}})
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	if full.Shards[0][0] != 99 {
		t.Error("full fallback does not reflect the live array")
	}
}
