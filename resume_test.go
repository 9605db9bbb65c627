package celeste

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/imageio"
)

// resumeSurvey builds the small fixed-seed survey the kill/resume tests run
// inference on, sized to yield a handful of tasks per stage.
func resumeSurvey(t *testing.T) (*Survey, []CatalogEntry, InferConfig) {
	t.Helper()
	cfg := DefaultSurveyConfig(41)
	cfg.Region = geom.NewBox(0, 0, 0.014, 0.014)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 128, 128
	cfg.SourceDensity = 30000
	sv := GenerateSurvey(cfg)
	init := sv.NoisyCatalog(42)
	if len(init) < 4 {
		t.Skip("fixed-seed survey too sparse")
	}
	icfg := InferConfig{TargetWork: 1e5, Rounds: 1, MaxIter: 8, Seed: 9}
	return sv, init, icfg
}

func entriesIdentical(t *testing.T, want, got []CatalogEntry, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d entries vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: entry %d not byte-identical:\n want %+v\n  got %+v",
				label, i, want[i], got[i])
		}
	}
}

// TestInferKillResumeByteIdentical is the public-API form of the PR's
// acceptance criterion: a run killed at an arbitrary task boundary and
// resumed from its serialized checkpoint produces a catalog byte-identical
// to the uninterrupted run, at every tested {threads, procs} combination.
// The checkpoint crosses the real wire format (imageio) on its way back in.
func TestInferKillResumeByteIdentical(t *testing.T) {
	sv, init, icfg := resumeSurvey(t)

	combos := []struct{ threads, procs int }{
		{1, 1}, {4, 2}, {2, 3},
	}
	if testing.Short() {
		combos = combos[:2]
	}
	for _, combo := range combos {
		cfg := icfg
		cfg.Threads, cfg.Processes = combo.threads, combo.procs
		label := fmt.Sprintf("threads=%d procs=%d", combo.threads, combo.procs)

		base := Infer(sv, init, cfg)
		total := base.TasksProcessed
		if total < 3 {
			t.Fatalf("%s: only %d tasks; the kill grid needs more", label, total)
		}

		kills := []int{1, total / 2, total - 1}
		if testing.Short() {
			kills = kills[1:2]
		}
		for _, k := range kills {
			var wire []byte
			n := 0
			_, err := InferWithOptions(sv, init, cfg, InferOptions{
				CheckpointEvery: 1,
				OnCheckpoint: func(ck *Checkpoint) error {
					n++
					var buf bytes.Buffer
					if werr := imageio.WriteCheckpoint(&buf, ck); werr != nil {
						return werr
					}
					wire = buf.Bytes() // keep the latest durable checkpoint
					if n == k {
						return errors.New("injected kill")
					}
					return nil
				},
			})
			if !errors.Is(err, ErrRunAborted) {
				t.Fatalf("%s kill@%d: got %v, want ErrRunAborted", label, k, err)
			}
			ck, err := imageio.ReadCheckpoint(bytes.NewReader(wire))
			if err != nil {
				t.Fatalf("%s kill@%d: reloading checkpoint: %v", label, k, err)
			}
			res, err := InferWithOptions(sv, init, cfg, InferOptions{Resume: ck})
			if err != nil {
				t.Fatalf("%s kill@%d: resume: %v", label, k, err)
			}
			entriesIdentical(t, base.Catalog, res.Catalog,
				fmt.Sprintf("%s kill@%d", label, k))
			if res.TasksProcessed != total {
				t.Errorf("%s kill@%d: cumulative tasks %d, want %d",
					label, k, res.TasksProcessed, total)
			}
		}
	}
}
