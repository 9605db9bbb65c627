// Checkpoint file format: the durable form of a distributed run's resumable
// state (core.Checkpoint). Layout, little-endian throughout:
//
//	magic "CELK2"
//	u64 run hash | u64 stage | u64 task count
//	task-completion bitmap, packed 64 tasks per u64 word
//	u64 fits | u64 newton iters | u64 visits | u64 tasks processed
//	u64 pgas local ops | u64 pgas remote ops
//	2 × PGAS snapshot (live array, then frozen stage-input array):
//	  u64 n | u64 width | u64 ranks
//	  per shard: u64 version | u64 value count | that many f64 values
//
// The reader is hardened the same way the frame reader is: implausible
// counts error out before any large allocation, and allocations grow with
// data actually read, so a malformed or truncated file can never OOM the
// process.
package imageio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"celeste/internal/core"
	"celeste/internal/pgas"
)

// checkpointMagic identifies a Celeste checkpoint file ("CELK" + version).
// A layout change bumps the version, so a file of another layout is refused
// by its magic rather than misparsed.
var checkpointMagic = [5]byte{'C', 'E', 'L', 'K', '2'}

// maxCheckpointTasks bounds the task bitmap a reader will accept; the
// paper's full-sky run is 557,056 tasks, so a generous multiple covers any
// real survey while keeping a hostile header from forcing a huge allocation.
const maxCheckpointTasks = 1 << 24

// maxSnapshotValues bounds one PGAS snapshot's total float64 count (about
// 3.4 GB of parameters — far beyond any in-process run, small enough to
// refuse absurd headers).
const maxSnapshotValues = 1 << 29

// WriteCheckpoint serializes a checkpoint.
func WriteCheckpoint(w io.Writer, ck *core.Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	var scratch [8]byte
	wU64 := func(vs ...uint64) error {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(scratch[:], v)
			if _, err := bw.Write(scratch[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := wU64(ck.Hash, uint64(int64(ck.Stage)), uint64(len(ck.Done))); err != nil {
		return err
	}
	words := (len(ck.Done) + 63) / 64
	for wi := 0; wi < words; wi++ {
		var v uint64
		for b := 0; b < 64 && wi*64+b < len(ck.Done); b++ {
			if ck.Done[wi*64+b] {
				v |= 1 << uint(b)
			}
		}
		if err := wU64(v); err != nil {
			return err
		}
	}
	if err := wU64(
		uint64(ck.Stats.Fits), uint64(ck.Stats.NewtonIters), uint64(ck.Stats.Visits),
		uint64(int64(ck.TasksProcessed)),
		uint64(ck.PGASLocal), uint64(ck.PGASRemote),
	); err != nil {
		return err
	}
	for _, s := range []*pgas.Snapshot{ck.Cur, ck.StageStart} {
		if err := wU64(uint64(int64(s.N)), uint64(int64(s.Width)), uint64(int64(s.Ranks))); err != nil {
			return err
		}
		for r, data := range s.Shards {
			if err := wU64(s.Versions[r], uint64(len(data))); err != nil {
				return err
			}
			for _, v := range data {
				if err := wU64(math.Float64bits(v)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadCheckpoint deserializes and validates a checkpoint.
func ReadCheckpoint(r io.Reader) (*core.Checkpoint, error) {
	br := bufio.NewReader(r)
	var m [5]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, err
	}
	if m != checkpointMagic {
		return nil, errors.New("imageio: bad magic; not a Celeste checkpoint file")
	}
	var scratch [8]byte
	rU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	rMany := func(dst ...*uint64) error {
		for _, p := range dst {
			v, err := rU64()
			if err != nil {
				return err
			}
			*p = v
		}
		return nil
	}

	ck := &core.Checkpoint{}
	var stage, nTasks uint64
	if err := rMany(&ck.Hash, &stage, &nTasks); err != nil {
		return nil, err
	}
	if stage > 1 {
		return nil, fmt.Errorf("imageio: checkpoint stage %d out of range", stage)
	}
	if nTasks > maxCheckpointTasks {
		return nil, fmt.Errorf("imageio: implausible checkpoint task count %d", nTasks)
	}
	ck.Stage = int(stage)
	ck.Done = make([]bool, nTasks)
	words := (int(nTasks) + 63) / 64
	for wi := 0; wi < words; wi++ {
		v, err := rU64()
		if err != nil {
			return nil, err
		}
		for b := 0; b < 64 && wi*64+b < int(nTasks); b++ {
			ck.Done[wi*64+b] = v&(1<<uint(b)) != 0
		}
	}
	var fits, iters, visits, processed, local, remote uint64
	if err := rMany(&fits, &iters, &visits, &processed, &local, &remote); err != nil {
		return nil, err
	}
	ck.Stats = core.Stats{Fits: int64(fits), NewtonIters: int64(iters), Visits: int64(visits)}
	ck.TasksProcessed = int(int64(processed))
	ck.PGASLocal, ck.PGASRemote = int64(local), int64(remote)
	if ck.TasksProcessed < 0 || ck.Stats.Fits < 0 || ck.Stats.NewtonIters < 0 || ck.Stats.Visits < 0 ||
		ck.PGASLocal < 0 || ck.PGASRemote < 0 {
		return nil, errors.New("imageio: checkpoint counters negative")
	}

	for _, dst := range []**pgas.Snapshot{&ck.Cur, &ck.StageStart} {
		s, err := readSnapshot(rU64)
		if err != nil {
			return nil, err
		}
		*dst = s
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return ck, nil
}

// readSnapshot reads one PGAS snapshot, with every count checked against the
// snapshot's own declared geometry before allocation.
func readSnapshot(rU64 func() (uint64, error)) (*pgas.Snapshot, error) {
	var n, width, ranks uint64
	for _, p := range []*uint64{&n, &width, &ranks} {
		v, err := rU64()
		if err != nil {
			return nil, err
		}
		*p = v
	}
	if n > maxSnapshotValues || width == 0 || width > 1<<16 || ranks == 0 || ranks > 1<<20 {
		return nil, fmt.Errorf("imageio: implausible snapshot geometry n=%d width=%d ranks=%d", n, width, ranks)
	}
	if n*width > maxSnapshotValues {
		return nil, fmt.Errorf("imageio: snapshot holds %d values, over the %d cap", n*width, maxSnapshotValues)
	}
	s := &pgas.Snapshot{
		N: int(n), Width: int(width), Ranks: int(ranks),
		Shards:   make([][]float64, ranks),
		Versions: make([]uint64, ranks),
	}
	total := uint64(0)
	for r := range s.Shards {
		ver, err := rU64()
		if err != nil {
			return nil, err
		}
		count, err := rU64()
		if err != nil {
			return nil, err
		}
		// Compare against the remaining budget rather than summing first:
		// a count near 2^64 would wrap `total += count` past the cap.
		if count > n*width-total {
			return nil, fmt.Errorf("imageio: snapshot shards exceed declared %d values", n*width)
		}
		total += count
		s.Versions[r] = ver
		// Grow with data actually read, so a truncated file with a huge
		// declared count cannot force a huge allocation.
		data := make([]float64, 0, min(count, 1<<16))
		for k := uint64(0); k < count; k++ {
			v, err := rU64()
			if err != nil {
				return nil, err
			}
			f := math.Float64frombits(v)
			if !isFinite(f) {
				return nil, fmt.Errorf("imageio: non-finite parameter in snapshot shard %d", r)
			}
			data = append(data, f)
		}
		s.Shards[r] = data
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveCheckpoint writes a checkpoint atomically: the bytes land in a
// temporary file that is renamed over path only after a successful sync, so
// a crash mid-checkpoint can never destroy the previous good checkpoint.
func SaveCheckpoint(path string, ck *core.Checkpoint) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(f, ck); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	// The rename is only durable once the parent directory entry is synced:
	// without it a crash can leave the old name pointing at nothing even
	// though both files were individually fsynced.
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	if err := dir.Sync(); err != nil {
		dir.Close()
		return err
	}
	return dir.Close()
}

// LoadCheckpoint reads a checkpoint file.
func LoadCheckpoint(path string) (*core.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
