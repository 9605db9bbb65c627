package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"celeste/internal/geom"
	"celeste/internal/model"
)

// TestValidateFlags walks the flag-combination matrix: every contradictory
// combination is refused with an error naming the offending flags, and every
// sensible combination passes.
func TestValidateFlags(t *testing.T) {
	ok := flagConfig{Procs: 4, Threads: 8}
	cases := []struct {
		name string
		fc   flagConfig
		want string // "" means valid
	}{
		{"default run", ok, ""},
		{"plain serve", flagConfig{Serve: ":7021", Procs: 4, Threads: 8}, ""},
		{"plain worker", flagConfig{Worker: "host:7021", Procs: 4, Threads: 8}, ""},
		{"plain spawn", flagConfig{Spawn: 4, SpawnSet: true, Procs: 4, Threads: 8}, ""},
		{"spawn with checkpoint", flagConfig{Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, ""},
		{"serve with resume", flagConfig{Serve: ":7021", Checkpoint: "run.celk", CheckpointEvery: 1, Resume: true, Procs: 4, Threads: 8}, ""},
		{"spawn with the same procs", flagConfig{Spawn: 2, SpawnSet: true, Procs: 2, ProcsSet: true, Threads: 8}, ""},
		{"spawn beside the procs default", flagConfig{Spawn: 2, SpawnSet: true, Procs: 4, Threads: 8}, ""},
		{"fit with query", flagConfig{Query: ":8080", Procs: 4, Threads: 8}, ""},
		{"spawn with query", flagConfig{Spawn: 2, SpawnSet: true, Query: ":8080", Procs: 4, Threads: 8}, ""},
		{"query a catalog file", flagConfig{Query: ":8080", Load: "catalog.jsonl", Procs: 4, Threads: 8}, ""},
		{"supervised spawn", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, ""},
		{"supervised serve", flagConfig{Supervise: true, MaxRestarts: 5, Serve: ":7021", Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, ""},
		{"supervised spawn with rejoin knobs", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Rejoin: 64, RejoinWindow: time.Minute, Procs: 4, Threads: 8}, ""},
		{"coordinator child", flagConfig{ServeFD: 3, Checkpoint: "run.celk", CheckpointEvery: 1, Resume: true, Procs: 4, Threads: 8}, ""},
		{"worker with rejoin", flagConfig{Worker: "host:7021", Rejoin: 8, RejoinWindow: time.Minute, Procs: 4, Threads: 8}, ""},

		{"spawn zero", flagConfig{Spawn: 0, SpawnSet: true, Procs: 4, Threads: 8}, "-spawn"},
		{"spawn negative", flagConfig{Spawn: -3, SpawnSet: true, Procs: 4, Threads: 8}, "-spawn"},
		{"worker and serve", flagConfig{Worker: "a:1", Serve: ":2", Procs: 4, Threads: 8}, "mutually exclusive"},
		{"worker and spawn", flagConfig{Worker: "a:1", Spawn: 2, SpawnSet: true, Procs: 4, Threads: 8}, "mutually exclusive"},
		{"worker with checkpoint", flagConfig{Worker: "a:1", Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "coordinator owns checkpointing"},
		{"worker with resume", flagConfig{Worker: "a:1", Resume: true, Procs: 4, Threads: 8}, "coordinator owns checkpoint state"},
		{"resume without checkpoint", flagConfig{Resume: true, Procs: 4, Threads: 8}, "-resume requires -checkpoint"},
		{"serve and spawn", flagConfig{Serve: ":2", Spawn: 2, SpawnSet: true, Procs: 4, Threads: 8}, "mutually exclusive"},
		{"zero procs", flagConfig{Procs: 0, Threads: 8}, "-procs"},
		{"zero threads", flagConfig{Procs: 4, Threads: 0}, "-threads"},
		{"spawn with other procs", flagConfig{Spawn: 2, SpawnSet: true, Procs: 3, ProcsSet: true, Threads: 8}, "-procs 3 with -spawn 2"},
		{"supervised spawn with other procs", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 4, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 2, ProcsSet: true, Threads: 8}, "-procs 2 with -spawn 4"},
		{"load without query", flagConfig{Load: "catalog.jsonl", Procs: 4, Threads: 8}, "-load requires -query"},
		{"load with worker", flagConfig{Query: ":8080", Load: "c.jsonl", Worker: "a:1", Procs: 4, Threads: 8}, "-load"},
		{"load with serve", flagConfig{Query: ":8080", Load: "c.jsonl", Serve: ":2", Procs: 4, Threads: 8}, "-load"},
		{"load with spawn", flagConfig{Query: ":8080", Load: "c.jsonl", Spawn: 2, SpawnSet: true, Procs: 4, Threads: 8}, "-load"},
		{"load with checkpoint", flagConfig{Query: ":8080", Load: "c.jsonl", Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "-load"},
		{"load with resume", flagConfig{Query: ":8080", Load: "c.jsonl", Checkpoint: "run.celk", CheckpointEvery: 1, Resume: true, Procs: 4, Threads: 8}, "-load"},
		{"query on a worker", flagConfig{Query: ":8080", Worker: "a:1", Procs: 4, Threads: 8}, "-query"},
		{"supervise without checkpoint", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Procs: 4, Threads: 8}, "-supervise requires -checkpoint"},
		{"supervise without serve or spawn", flagConfig{Supervise: true, MaxRestarts: 5, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "-supervise requires -serve or -spawn"},
		{"supervise on a worker", flagConfig{Supervise: true, MaxRestarts: 5, Worker: "a:1", Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "coordinator owns checkpointing"},
		{"supervise with query", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Query: ":8080", Procs: 4, Threads: 8}, "-supervise cannot host -query"},
		{"serve-fd with serve", flagConfig{ServeFD: 3, Serve: ":7021", Procs: 4, Threads: 8}, "-serve-fd is internal"},
		{"serve-fd with supervise", flagConfig{ServeFD: 3, Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "-serve-fd is internal"},
		{"negative rejoin", flagConfig{Worker: "a:1", Rejoin: -1, Procs: 4, Threads: 8}, "-rejoin"},
		{"negative rejoin window", flagConfig{Worker: "a:1", RejoinWindow: -1, Procs: 4, Threads: 8}, "-rejoin-window"},
		{"rejoin without worker", flagConfig{Rejoin: 3, Procs: 4, Threads: 8}, "-rejoin"},
		{"rejoin window on plain spawn", flagConfig{Spawn: 2, SpawnSet: true, RejoinWindow: time.Minute, Procs: 4, Threads: 8}, "-rejoin"},
		{"checkpoint every zero", flagConfig{Checkpoint: "run.celk", CheckpointEvery: 0, Procs: 4, Threads: 8}, "-checkpoint-every 0"},
		{"checkpoint every negative", flagConfig{Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: -1, Procs: 4, Threads: 8}, "-checkpoint-every -1"},
		{"supervised spawn never checkpointing", flagConfig{Supervise: true, MaxRestarts: 5, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 0, Procs: 4, Threads: 8}, "-checkpoint-every 0"},
		{"supervise with zero restarts", flagConfig{Supervise: true, MaxRestarts: 0, Spawn: 2, SpawnSet: true, Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "-max-restarts 0"},
		{"supervise with negative restarts", flagConfig{Supervise: true, MaxRestarts: -1, Serve: ":7021", Checkpoint: "run.celk", CheckpointEvery: 1, Procs: 4, Threads: 8}, "-max-restarts -1"},
	}
	for _, tc := range cases {
		err := validateFlags(tc.fc)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpectedly refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want an error mentioning %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestAccuracySummary pins the truth-comparison report's denominators: the
// |Δmag| mean divides by the pairs that contributed a magnitude (both fluxes
// positive), not by all position pairs, and an empty catalog reports cleanly
// instead of printing NaN.
func TestAccuracySummary(t *testing.T) {
	const pixScale = 1e-3
	entry := func(ra float64, flux float64) model.CatalogEntry {
		var e model.CatalogEntry
		e.Pos = geom.Pt2{RA: ra, Dec: 0}
		e.Flux[model.RefBand] = flux
		return e
	}

	t.Run("empty catalog has no NaN", func(t *testing.T) {
		got := accuracySummary([]model.CatalogEntry{entry(0, 1)}, nil, pixScale)
		if strings.Contains(got, "NaN") {
			t.Fatalf("summary prints NaN: %q", got)
		}
		if !strings.Contains(got, "no overlapping entries") {
			t.Fatalf("summary %q does not flag the empty overlap", got)
		}
	})

	t.Run("mag denominator counts only measurable pairs", func(t *testing.T) {
		// Two pairs: one with both fluxes positive (|Δmag| = 2.5·log10(2)),
		// one with a collapsed estimate (flux 0, contributes no magnitude).
		// Pre-fix the sum was divided by 2, halving the reported error.
		truth := []model.CatalogEntry{entry(0, 10), entry(1, 10)}
		catalog := []model.CatalogEntry{entry(0, 20), entry(1, 0)}
		got := accuracySummary(truth, catalog, pixScale)
		want := fmt.Sprintf("%.3f", 2.5*math.Log10(2))
		if !strings.Contains(got, "mean |Δmag| "+want) {
			t.Errorf("summary %q does not report |Δmag| %s over the 1 measurable pair", got, want)
		}
		if !strings.Contains(got, "1 of 2 pairs") {
			t.Errorf("summary %q does not disclose the pair counts", got)
		}
	})

	t.Run("no measurable pair", func(t *testing.T) {
		got := accuracySummary([]model.CatalogEntry{entry(0, 10)},
			[]model.CatalogEntry{entry(0, 0)}, pixScale)
		if strings.Contains(got, "NaN") {
			t.Fatalf("summary prints NaN: %q", got)
		}
		if !strings.Contains(got, "|Δmag| unavailable") {
			t.Errorf("summary %q does not flag the missing magnitudes", got)
		}
	})
}
