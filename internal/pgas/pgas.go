// Package pgas provides the partitioned global address space that holds the
// current parameters of every light source during distributed optimization
// (Section IV-C). The interface mimics the Global Arrays Toolkit: a global
// array of fixed-width float64 elements, partitioned over ranks by block
// ownership, accessed with one-sided Get/Put operations.
//
// The paper's transport is MPI-3 remote memory access, one-sided operations
// supported in hardware by the interconnect; the defining property is that
// the target rank does not participate in a transfer. In process, shared
// memory gives exactly that semantics: a Get or Put touches the owner's
// shard directly under a shard lock, and per-rank operation counters record
// the remote-vs-local traffic that a fabric would carry (the cluster
// simulator prices them with modeled latencies).
package pgas

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Array is a global array of n elements, each a fixed-width []float64
// block, partitioned contiguously over ranks.
type Array struct {
	n      int
	width  int
	nRanks int

	shards []shard

	localOps  atomic.Int64
	remoteOps atomic.Int64
}

type shard struct {
	mu      sync.RWMutex
	data    []float64 // elements owned by this rank, packed
	lo      int       // first global element index owned
	version uint64    // incremented on every Put to this shard
}

// New creates a global array of n elements of the given width over nRanks
// owners.
func New(n, width, nRanks int) *Array {
	if n < 0 || width <= 0 || nRanks <= 0 {
		panic("pgas: invalid dimensions")
	}
	a := &Array{n: n, width: width, nRanks: nRanks, shards: make([]shard, nRanks)}
	for r := 0; r < nRanks; r++ {
		lo, hi := a.ownedRange(r)
		a.shards[r].lo = lo
		a.shards[r].data = make([]float64, (hi-lo)*width)
	}
	return a
}

// N returns the element count.
func (a *Array) N() int { return a.n }

// Width returns the per-element float64 count.
func (a *Array) Width() int { return a.width }

// Owner returns the rank owning element i.
func (a *Array) Owner(i int) int {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("pgas: element %d out of range [0,%d)", i, a.n))
	}
	per := (a.n + a.nRanks - 1) / a.nRanks
	r := i / per
	if r >= a.nRanks {
		r = a.nRanks - 1
	}
	return r
}

// ownedRange returns the [lo, hi) global element range owned by rank.
func (a *Array) ownedRange(rank int) (lo, hi int) {
	per := (a.n + a.nRanks - 1) / a.nRanks
	lo = rank * per
	hi = lo + per
	if lo > a.n {
		lo = a.n
	}
	if hi > a.n {
		hi = a.n
	}
	return
}

func (a *Array) account(caller, owner int) {
	if caller == owner {
		a.localOps.Add(1)
	} else {
		a.remoteOps.Add(1)
	}
}

// Get copies element i into out (len == Width). caller identifies the
// requesting rank for traffic accounting; a caller that owns no shard (a
// rank at or past the array's rank count) counts every access as remote.
func (a *Array) Get(caller, i int, out []float64) {
	if len(out) != a.width {
		panic("pgas: Get buffer width mismatch")
	}
	owner := a.Owner(i)
	sh := &a.shards[owner]
	sh.mu.RLock()
	off := (i - sh.lo) * a.width
	copy(out, sh.data[off:off+a.width])
	sh.mu.RUnlock()
	a.account(caller, owner)
}

// Put stores val (len == Width) into element i.
func (a *Array) Put(caller, i int, val []float64) {
	if len(val) != a.width {
		panic("pgas: Put buffer width mismatch")
	}
	owner := a.Owner(i)
	sh := &a.shards[owner]
	sh.mu.Lock()
	off := (i - sh.lo) * a.width
	copy(sh.data[off:off+a.width], val)
	sh.version++
	sh.mu.Unlock()
	a.account(caller, owner)
}

// Stats returns cumulative local and remote operations.
func (a *Array) Stats() (local, remote int64) {
	return a.localOps.Load(), a.remoteOps.Load()
}

// Getter is the read side of a rank's view of a global array. The in-memory
// View implements it over shared memory; internal/net's worker client
// implements it over TCP against the coordinator's shards, so task code is
// indifferent to whether the array lives in-process or across the wire.
type Getter interface {
	// GetMulti copies the elements at idx into out, packed contiguously
	// (len(out) == len(idx)*Width).
	GetMulti(idx []int, out []float64) error
}

// Putter is the write side of a rank's view of a global array.
type Putter interface {
	// PutMulti stores the packed values (len(vals) == len(idx)*Width) into
	// the elements at idx.
	PutMulti(idx []int, vals []float64) error
}

// View is an Array bound to a caller rank: the shared-memory implementation
// of Getter and Putter. Each batched element access is accounted exactly like
// the corresponding sequence of Get/Put calls, so the traffic counters do not
// depend on which access style the runtime uses.
type View struct {
	a    *Array
	rank int
}

// View binds the array to a caller rank for Getter/Putter-style access.
func (a *Array) View(rank int) View { return View{a: a, rank: rank} }

// GetMulti implements Getter over the local array. It never fails: an
// out-of-range index is a programming error and panics like Get.
func (v View) GetMulti(idx []int, out []float64) error {
	if len(out) != len(idx)*v.a.width {
		panic("pgas: GetMulti buffer size mismatch")
	}
	for k, i := range idx {
		v.a.Get(v.rank, i, out[k*v.a.width:(k+1)*v.a.width])
	}
	return nil
}

// PutMulti implements Putter over the local array.
func (v View) PutMulti(idx []int, vals []float64) error {
	if len(vals) != len(idx)*v.a.width {
		panic("pgas: PutMulti buffer size mismatch")
	}
	for k, i := range idx {
		v.a.Put(v.rank, i, vals[k*v.a.width:(k+1)*v.a.width])
	}
	return nil
}

// Snapshot is a point-in-time copy of an Array's contents, the unit the
// checkpoint format serializes. Shards are captured under their locks, so
// each shard is internally consistent; Versions records each shard's write
// counter at capture time (a resumed run restores both, so a later Snapshot
// of the restored array is distinguishable from the original's successors).
type Snapshot struct {
	N, Width, Ranks int
	Shards          [][]float64 // per-rank packed element data
	Versions        []uint64    // per-rank shard write counters
}

// Snapshot copies the array's current contents. Concurrent writers may land
// between shard captures; callers that need a globally consistent cut must
// quiesce writers (the core runtime snapshots under its commit lock).
func (a *Array) Snapshot() *Snapshot {
	s := &Snapshot{
		N: a.n, Width: a.width, Ranks: a.nRanks,
		Shards:   make([][]float64, a.nRanks),
		Versions: make([]uint64, a.nRanks),
	}
	for r := range a.shards {
		sh := &a.shards[r]
		sh.mu.RLock()
		s.Shards[r] = append([]float64(nil), sh.data...)
		s.Versions[r] = sh.version
		sh.mu.RUnlock()
	}
	return s
}

// SnapshotDelta captures the array like Snapshot, but shares the previous
// snapshot's shard slice for every shard whose write counter (and geometry)
// is unchanged since prev was captured — an incremental capture that copies
// only the shards written since the last checkpoint. Sharing is safe because
// snapshot shards are immutable copies; the caller must pass a prev that was
// captured from THIS array (a snapshot of a different or replaced array can
// alias version counters and must not be reused — pass nil to force a full
// copy).
func (a *Array) SnapshotDelta(prev *Snapshot) *Snapshot {
	if prev == nil || prev.N != a.n || prev.Width != a.width || prev.Ranks != a.nRanks {
		return a.Snapshot()
	}
	s := &Snapshot{
		N: a.n, Width: a.width, Ranks: a.nRanks,
		Shards:   make([][]float64, a.nRanks),
		Versions: make([]uint64, a.nRanks),
	}
	for r := range a.shards {
		sh := &a.shards[r]
		sh.mu.RLock()
		if sh.version == prev.Versions[r] && len(prev.Shards[r]) == len(sh.data) {
			s.Shards[r] = prev.Shards[r]
		} else {
			s.Shards[r] = append([]float64(nil), sh.data...)
		}
		s.Versions[r] = sh.version
		sh.mu.RUnlock()
	}
	return s
}

// Validate checks a snapshot's internal consistency (dimensions versus shard
// lengths), e.g. after deserialization from an untrusted checkpoint file.
func (s *Snapshot) Validate() error {
	if s.N < 0 || s.Width <= 0 || s.Ranks <= 0 {
		return fmt.Errorf("pgas: snapshot has invalid dimensions n=%d width=%d ranks=%d",
			s.N, s.Width, s.Ranks)
	}
	if len(s.Shards) != s.Ranks || len(s.Versions) != s.Ranks {
		return fmt.Errorf("pgas: snapshot has %d shards and %d versions for %d ranks",
			len(s.Shards), len(s.Versions), s.Ranks)
	}
	probe := Array{n: s.N, nRanks: s.Ranks}
	for r, data := range s.Shards {
		lo, hi := probe.ownedRange(r)
		if len(data) != (hi-lo)*s.Width {
			return fmt.Errorf("pgas: snapshot shard %d has %d values, want %d",
				r, len(data), (hi-lo)*s.Width)
		}
	}
	return nil
}

// Restore overwrites the array's contents and shard versions from a
// snapshot. The snapshot's dimensions must match the array's exactly.
func (a *Array) Restore(s *Snapshot) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.N != a.n || s.Width != a.width || s.Ranks != a.nRanks {
		return fmt.Errorf("pgas: snapshot %dx%d/%d does not match array %dx%d/%d",
			s.N, s.Width, s.Ranks, a.n, a.width, a.nRanks)
	}
	for r := range a.shards {
		sh := &a.shards[r]
		sh.mu.Lock()
		copy(sh.data, s.Shards[r])
		sh.version = s.Versions[r]
		sh.mu.Unlock()
	}
	return nil
}

// Repartition returns an equivalent snapshot of the same elements block-
// partitioned over a different rank count. Shards are contiguous by global
// index, so the element stream is invariant; only the cut points move. This
// is what lets a checkpoint taken at one process count resume at another.
func (s *Snapshot) Repartition(ranks int) (*Snapshot, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if ranks <= 0 {
		return nil, fmt.Errorf("pgas: repartition over %d ranks", ranks)
	}
	flat := make([]float64, 0, s.N*s.Width)
	for _, sh := range s.Shards {
		flat = append(flat, sh...)
	}
	out := &Snapshot{
		N: s.N, Width: s.Width, Ranks: ranks,
		Shards:   make([][]float64, ranks),
		Versions: make([]uint64, ranks),
	}
	probe := Array{n: s.N, nRanks: ranks}
	for r := 0; r < ranks; r++ {
		lo, hi := probe.ownedRange(r)
		out.Shards[r] = append([]float64(nil), flat[lo*s.Width:hi*s.Width]...)
	}
	return out, nil
}

// FromSnapshot builds a new array holding the snapshot's contents.
func FromSnapshot(s *Snapshot) (*Array, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	a := New(s.N, s.Width, s.Ranks)
	if err := a.Restore(s); err != nil {
		return nil, err
	}
	return a, nil
}
