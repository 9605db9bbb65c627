//go:build amd64 && !amd64.v3

// The pin holds where the compiler fuses no multiply-adds — amd64 at the
// baseline levels (GOAMD64 v1, v2) — and the CPU has FMA. The standard
// library's math.Exp is amd64 assembly that picks an FMA path at run time,
// so the same binary writes other catalog bytes on a CPU without FMA, or
// under GODEBUG=cpu.fma=off, and this test fails there. Another architecture
// or level computes the same catalog to rounding, not to the byte. An owned,
// dispatch-free Exp (ROADMAP, "One catalog on every CPU") would make the pin
// hold on every amd64 CPU.

package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"celeste/internal/geom"
	"celeste/internal/model"
	"celeste/internal/partition"
	"celeste/internal/survey"
	"celeste/internal/vi"
)

// The catalog bytes of pinnedRun at numerics revision pinRevision. A change
// that moves catalog bytes on purpose bumps numericsRevision and re-pins both
// constants in the same change. A change to the survey generator, the noisy
// initial catalog or the partition moves this run's inputs rather than the
// arithmetic: it re-pins pinSHA256 alone and says so.
const (
	pinRevision = 11
	pinSHA256   = "c2bc79b6b6b7fa41d5de0a9f05f2dc8fb9f525a182bd35be834e171923ff0ed1"
)

// pinnedRun is a small fixed two-sweep run over one epoch of a few stars and
// galaxies, sized the same with and without -short.
func pinnedRun(t *testing.T) []model.CatalogEntry {
	cfg := survey.DefaultConfig(41)
	cfg.Region = geom.NewBox(0, 0, 0.016, 0.016)
	cfg.DeepRegion = geom.Box{}
	cfg.DeepRuns = 0
	cfg.Runs = 1
	cfg.FieldW, cfg.FieldH = 96, 96
	cfg.SourceDensity = 25000
	cfg.Priors.R1Mean = [model.NumTypes]float64{math.Log(8), math.Log(10)}
	cfg.Priors.R1SD = [model.NumTypes]float64{0.5, 0.5}
	sv := survey.Generate(cfg)
	noisy := sv.NoisyCatalog(3)
	tasks := partition.GenerateTwoStage(noisy, sv.Config.Region, partition.Options{TargetWork: 1e6})
	res := run(t, sv, noisy, tasks, Config{Threads: 2, PatchThreads: 2, Rounds: 2,
		Fit: vi.Options{MaxIter: 20, GradTol: 1e-4}})
	return res.Catalog
}

// TestCatalogBytesPinned fails when the catalog bytes of a small fixed run
// move while numericsRevision does not, so a by-design byte change cannot
// ship without the revision bump that keeps old checkpoints and workers from
// mixing two arithmetics into one catalog.
func TestCatalogBytesPinned(t *testing.T) {
	cat := pinnedRun(t)
	h := sha256.New()
	enc := json.NewEncoder(h) // the bytes imageio.WriteCatalog writes
	for i := range cat {
		if err := enc.Encode(&cat[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if numericsRevision != pinRevision {
		t.Fatalf("numericsRevision is %d but the catalog pin is for revision %d: set pinRevision = %d and pinSHA256 = %q",
			numericsRevision, pinRevision, numericsRevision, got)
	}
	if got != pinSHA256 {
		t.Fatalf("catalog bytes moved at numerics revision %d: sha256 %s, pinned %s (%d entries)",
			pinRevision, got, pinSHA256, len(cat))
	}
}
