package imageio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"celeste/internal/core"
	"celeste/internal/pgas"
)

// testCheckpoint builds a populated checkpoint over n sources and nTasks
// tasks.
func testCheckpoint(n, nTasks int) *core.Checkpoint {
	const width, ranks = 4, 3
	a := pgas.New(n, width, ranks)
	val := make([]float64, width)
	for i := 0; i < n; i++ {
		for k := range val {
			val[k] = float64(i*10 + k)
		}
		a.Put(0, i, val)
	}
	cur := a.Snapshot()
	for i := 0; i < n; i++ {
		for k := range val {
			val[k] = -float64(i + k)
		}
		a.Put(1, i, val)
	}
	done := make([]bool, nTasks)
	for i := 0; i < nTasks; i += 2 {
		done[i] = true
	}
	return &core.Checkpoint{
		Hash:           0xdeadbeefcafef00d,
		Stage:          1,
		Done:           done,
		Cur:            a.Snapshot(),
		StageStart:     cur,
		Stats:          core.Stats{Fits: 42, NewtonIters: 377, Visits: 99991},
		TasksProcessed: 17,
		PGASLocal:      5, PGASRemote: 7,
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := testCheckpoint(5, 11)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != ck.Hash || got.Stage != ck.Stage ||
		got.Stats != ck.Stats || got.TasksProcessed != ck.TasksProcessed ||
		got.PGASLocal != ck.PGASLocal || got.PGASRemote != ck.PGASRemote {
		t.Fatalf("scalar fields changed in round trip: %+v vs %+v", got, ck)
	}
	if len(got.Done) != len(ck.Done) {
		t.Fatalf("bitmap length %d vs %d", len(got.Done), len(ck.Done))
	}
	for i := range ck.Done {
		if got.Done[i] != ck.Done[i] {
			t.Fatalf("bitmap bit %d flipped", i)
		}
	}
	for si, want := range []*pgas.Snapshot{ck.Cur, ck.StageStart} {
		have := []*pgas.Snapshot{got.Cur, got.StageStart}[si]
		if have.N != want.N || have.Width != want.Width || have.Ranks != want.Ranks {
			t.Fatalf("snapshot %d geometry changed", si)
		}
		for r := range want.Shards {
			if have.Versions[r] != want.Versions[r] {
				t.Fatalf("snapshot %d shard %d version %d vs %d", si, r, have.Versions[r], want.Versions[r])
			}
			for k := range want.Shards[r] {
				if have.Shards[r][k] != want.Shards[r][k] {
					t.Fatalf("snapshot %d shard %d value %d changed", si, r, k)
				}
			}
		}
	}
}

func TestCheckpointFileSaveLoad(t *testing.T) {
	ck := testCheckpoint(4, 6)
	path := filepath.Join(t.TempDir(), "run.celk")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary file left behind after atomic save")
	}
	got, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash != ck.Hash || len(got.Done) != len(ck.Done) {
		t.Fatal("loaded checkpoint differs")
	}
	// Overwriting must go through the same atomic path.
	ck.Stats.Fits++
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	got, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Fits != ck.Stats.Fits {
		t.Fatal("overwrite did not take")
	}

	// A save into a freshly created subdirectory exercises the parent-dir
	// sync after the rename (a dir opened read-only must still Sync).
	nested := filepath.Join(t.TempDir(), "a", "b")
	if err := os.MkdirAll(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	npath := filepath.Join(nested, "run.celk")
	if err := SaveCheckpoint(npath, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(npath); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointReaderRejectsCorruption(t *testing.T) {
	ck := testCheckpoint(5, 11)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("XXXXX"), good[5:]...),
		"truncated header": good[:12],
		"truncated shards": good[:len(good)-9],
	}
	// Absurd task count.
	huge := append([]byte(nil), good...)
	for i := 21; i < 29; i++ {
		huge[i] = 0xff
	}
	cases["huge task count"] = huge
	// A NaN parameter value (flip a shard float to the NaN bit pattern).
	nan := append([]byte(nil), good...)
	off := len(nan) - 8
	copy(nan[off:], []byte{0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	cases["nan parameter"] = nan
	// A shard count near 2^64: summing it would wrap past the total-size
	// cap, so the reader must reject it against the remaining budget.
	// Offset: magic(5) + hash/stage/ntasks(24) + bitmap(8, 11 tasks -> 1
	// word) + counters(48) + snapshot geometry(24) + shard version(8).
	wrap := append([]byte(nil), good...)
	for i := 117; i < 125; i++ {
		wrap[i] = 0xff
	}
	cases["shard count overflow"] = wrap
	// Negative carried PGAS counters (local at offset 5+24+8+32 = 69,
	// remote right after it) would reach RunResult.PGASLocalOps/RemoteOps.
	for name, off := range map[string]int{"negative pgas local": 69, "negative pgas remote": 77} {
		neg := append([]byte(nil), good...)
		for i := off; i < off+8; i++ {
			neg[i] = 0xff
		}
		cases[name] = neg
	}

	for name, data := range cases {
		if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: reader accepted corrupted input", name)
		}
	}
}

// TestCheckpointReaderRefusesCELK1: a version-1 file (which carried a third
// PGAS counter) is refused by its magic rather than misread one field out of
// step.
func TestCheckpointReaderRefusesCELK1(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, testCheckpoint(5, 11)); err != nil {
		t.Fatal(err)
	}
	old := append([]byte("CELK1"), buf.Bytes()[5:]...)
	_, err := ReadCheckpoint(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("CELK1 header: err = %v, want a bad-magic refusal", err)
	}
}
