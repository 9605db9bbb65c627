package core

import (
	"math"
	"runtime"
	"testing"

	"celeste/internal/model"
	"celeste/internal/vi"
)

// TestConfigDefaultsValidation is the regression table for the config
// normalization bug: defaults() used to treat only the zero value as "unset",
// so a negative Threads flowed through and sized the worker slice with a
// negative length (a panic), a negative Rounds silently skipped every sweep
// while converting to a huge uint32 on the wire, and a NaN BatchFrac produced
// a zero batch size that stalled the Cyclades planner. Every numeric field
// must normalize negative, zero, and (where float) NaN inputs; valid values
// must pass through untouched.
func TestConfigDefaultsValidation(t *testing.T) {
	defThreads := runtime.NumCPU()
	if defThreads > 8 {
		defThreads = 8
	}
	defPatch := func(threads int) int {
		p := runtime.NumCPU() / threads
		if p < 1 {
			p = 1
		}
		if p > 8 {
			p = 8
		}
		return p
	}

	cases := []struct {
		name string
		in   Config
		want func(t *testing.T, c *Config)
	}{
		{"zero value fills all defaults", Config{}, func(t *testing.T, c *Config) {
			if c.Threads != defThreads {
				t.Errorf("Threads = %d, want %d", c.Threads, defThreads)
			}
			if c.Rounds != 2 {
				t.Errorf("Rounds = %d, want 2", c.Rounds)
			}
			if c.BatchFrac != 0.34 {
				t.Errorf("BatchFrac = %v, want 0.34", c.BatchFrac)
			}
			if c.Processes != 4 {
				t.Errorf("Processes = %d, want 4", c.Processes)
			}
			if want := defPatch(defThreads); c.PatchThreads != want {
				t.Errorf("PatchThreads = %d, want %d", c.PatchThreads, want)
			}
		}},
		{"negative Threads normalizes", Config{Threads: -3}, func(t *testing.T, c *Config) {
			if c.Threads != defThreads {
				t.Errorf("Threads = %d, want %d", c.Threads, defThreads)
			}
		}},
		{"negative Rounds normalizes", Config{Rounds: -1}, func(t *testing.T, c *Config) {
			if c.Rounds != 2 {
				t.Errorf("Rounds = %d, want 2", c.Rounds)
			}
		}},
		{"negative BatchFrac normalizes", Config{BatchFrac: -0.5}, func(t *testing.T, c *Config) {
			if c.BatchFrac != 0.34 {
				t.Errorf("BatchFrac = %v, want 0.34", c.BatchFrac)
			}
		}},
		{"NaN BatchFrac normalizes", Config{BatchFrac: math.NaN()}, func(t *testing.T, c *Config) {
			if c.BatchFrac != 0.34 {
				t.Errorf("BatchFrac = %v, want 0.34", c.BatchFrac)
			}
		}},
		{"negative Processes normalizes", Config{Processes: -7}, func(t *testing.T, c *Config) {
			if c.Processes != 4 {
				t.Errorf("Processes = %d, want 4", c.Processes)
			}
		}},
		{"negative PatchThreads normalizes", Config{Threads: 2, PatchThreads: -4}, func(t *testing.T, c *Config) {
			if want := defPatch(2); c.PatchThreads != want {
				t.Errorf("PatchThreads = %d, want %d", c.PatchThreads, want)
			}
		}},
		{"valid values pass through untouched",
			Config{Threads: 3, Rounds: 5, BatchFrac: 0.5, Processes: 2, PatchThreads: 6,
				Seed: 42, ColdSweeps: true,
				Fit: vi.Options{MaxIter: 7, GradTol: 1e-4, InitRadius: 0.25, PatchWorkers: 2}},
			func(t *testing.T, c *Config) {
				if c.Threads != 3 || c.Rounds != 5 || c.BatchFrac != 0.5 || c.Processes != 2 || c.PatchThreads != 6 {
					t.Errorf("valid config mutated: %+v", *c)
				}
				if c.Seed != 42 || !c.ColdSweeps {
					t.Errorf("Seed/ColdSweeps mutated: %+v", *c)
				}
				// Fit is normalized by vi.Options' own defaults at fit time;
				// core's defaults() must leave a valid Fit alone.
				if c.Fit != (vi.Options{MaxIter: 7, GradTol: 1e-4, InitRadius: 0.25, PatchWorkers: 2}) {
					t.Errorf("Fit mutated: %+v", c.Fit)
				}
			}},
		{"BatchFrac above 1 is left alone (clamping would change working configs)",
			Config{BatchFrac: 1.5}, func(t *testing.T, c *Config) {
				if c.BatchFrac != 1.5 {
					t.Errorf("BatchFrac = %v, want 1.5", c.BatchFrac)
				}
			}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.in
			c.defaults()
			tc.want(t, &c)
			// defaults must be idempotent: a second pass changes nothing.
			before := c
			c.defaults()
			if c != before {
				t.Errorf("defaults not idempotent: %+v vs %+v", c, before)
			}
		})
	}
}

// TestProcessDefaultsPatchWorkers checks the two-level budget wiring: when
// the caller leaves Fit.PatchWorkers unset, Process hands each fit
// cfg.PatchThreads workers — and because parallel evaluation is bitwise
// deterministic, the swept parameters are identical to a pinned-serial run.
func TestProcessDefaultsPatchWorkers(t *testing.T) {
	sv := smallSurvey(33)
	noisy := sv.NoisyCatalog(9)
	if len(noisy) < 2 {
		t.Skip("too few sources")
	}
	if len(noisy) > 4 {
		noisy = noisy[:4] // keep the double Process run affordable
	}
	priors := model.FitPriors(noisy)
	mkRegion := func() *Region {
		rg := &Region{Priors: &priors, Images: sv.Images, PixScale: sv.Config.PixScale}
		for i := range noisy {
			rg.Sources = append(rg.Sources, i)
			rg.Entries = append(rg.Entries, &noisy[i])
			rg.Params = append(rg.Params, model.InitialParams(&noisy[i]))
		}
		return rg
	}

	serialCfg := Config{Threads: 2, Rounds: 1, Seed: 5,
		Fit: vi.Options{MaxIter: 8, GradTol: 1e-3, PatchWorkers: 1}}
	parCfg := Config{Threads: 2, Rounds: 1, Seed: 5, PatchThreads: 4,
		Fit: vi.Options{MaxIter: 8, GradTol: 1e-3}}
	rgSerial, rgPar := mkRegion(), mkRegion()
	serialCfg.Process(rgSerial)
	parCfg.Process(rgPar)
	for i := range rgSerial.Params {
		for j := range rgSerial.Params[i] {
			if rgSerial.Params[i][j] != rgPar.Params[i][j] {
				t.Fatalf("source %d param %d differs between pinned-serial and PatchThreads=4 runs: %v vs %v",
					i, j, rgSerial.Params[i][j], rgPar.Params[i][j])
			}
		}
	}
}
