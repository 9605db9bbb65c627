// Command bench is the repository's benchmark, from pixel to catalog to
// query: four seeded workloads, end-to-end metrics measured on the real
// celeste binary and the real HTTP server, and a separate traced run that
// times each layer's exported functions from outside. See README.md.
//
//	go run -C bench . -seed 1 -out DIR        every workload, untraced and traced
//	go run -C bench . -workload deep_stack -seed 1 -seconds 20 -trace 0
//	go run -C bench . -selfcheck -runs 2      run-to-run spread against the bounds
//	go run -C bench . -compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// env is where one invocation finds its inputs and leaves its outputs, all
// inside the checkout.
type env struct {
	root    string // checkout root: BENCHMARK.json, cmd/, internal/
	celeste string // the binary under test, built from root
	work    string // scratch, removed on exit
	out     string // results and traces
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	smoke     bool
	selfcheck bool
	runs      int
	compare   bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result as one JSON line (driver mode)")
	flag.Uint64Var(&o.seed, "seed", 1, "the only source of randomness")
	flag.Float64Var(&o.seconds, "seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 measures end to end, 1 times the layers")
	flag.StringVar(&o.out, "out", "", "directory for results.json and trace-<workload>.jsonl (default .bench_build/out in the checkout)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs, one draw: exercises every path, measures nothing")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the end-to-end set -runs times and hold the spread to the bounds")
	flag.IntVar(&o.runs, "runs", 2, "with -selfcheck: how many sets, each with the next seed")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: bench -compare A.json B.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	// The benchmark runs from its own directory, one below the checkout root.
	root, err := filepath.Abs("..")
	if err != nil {
		return err
	}
	m, err := loadManifest(root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two results files")
		}
		return compareFiles(os.Stdout, m, flag.Arg(0), flag.Arg(1))
	}
	if o.seconds == 0 {
		o.seconds = float64(m.RunSeconds)
	}
	e, cleanup, err := newEnv(root, o.out)
	if err != nil {
		return err
	}
	defer cleanup()

	switch {
	case o.selfcheck:
		return selfCheck(os.Stdout, m, e, o.seed, o.seconds, o.smoke, o.runs)
	case o.workload != "":
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("no workload %q", o.workload)
		}
		res, err := runWorkload(w, e, o.seed, o.seconds, o.trace != 0, o.smoke)
		if err != nil {
			return err
		}
		res.print(os.Stderr, m)
		line, err := res.driverLine(m, o.trace != 0)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}
	rs, err := runAll(e, o.seed, o.seconds, o.smoke, true)
	if err != nil {
		return err
	}
	for _, r := range rs.Workloads {
		r.print(os.Stdout, m)
	}
	path := filepath.Join(e.out, "results.json")
	if err := writeJSON(path, rs); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", path)
	for _, r := range rs.Workloads {
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
	}
	return nil
}

// newEnv builds the binary under test from the checkout's source and makes
// the scratch and output directories.
func newEnv(root, out string) (*env, func(), error) {
	build := filepath.Join(root, ".bench_build")
	if out == "" {
		out = filepath.Join(build, "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return nil, nil, err
	}
	e := &env{root: root, celeste: filepath.Join(build, "celeste"), work: work, out: out}
	cleanup := func() { os.RemoveAll(work) }
	cmd := exec.Command("go", "build", "-o", e.celeste, "./cmd/celeste")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("building cmd/celeste: %w\n%s", err, msg)
	}
	return e, cleanup, nil
}

// runWorkload is one run of one workload: end to end with tracing off, or
// the traced per-layer run.
func runWorkload(w workload, e *env, seed uint64, seconds float64, traced, smoke bool) (*workloadResult, error) {
	if smoke {
		w = w.smoke()
	}
	switch {
	case w.Serve != nil:
		return runServe(&w, e, seed, seconds, traced)
	case traced:
		return traceInference(&w, e, seed)
	}
	return runInference(&w, e, seed, seconds)
}

// runAll runs every workload end to end and, when traced is set, again under
// the layer trace, folding the per-layer numbers into the same result.
func runAll(e *env, seed uint64, seconds float64, smoke, traced bool) (*results, error) {
	rs := newResults(e, seed, seconds, smoke)
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "bench: %s, end to end\n", w.Name)
		res, err := runWorkload(w, e, seed, seconds, false, smoke)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		// tcp_spawn2 reads wide_shallow's bytes, so its catalogs must be
		// wide_shallow's, draw for draw.
		if ref := rs.find("wide_shallow"); ref != nil && w.Name == "tcp_spawn2" {
			for d := range min(len(ref.CatalogSHA256), len(res.CatalogSHA256)) {
				if got, want := res.CatalogSHA256[d], ref.CatalogSHA256[d]; got != want {
					res.fail(res.Attempted/len(res.CatalogSHA256), fmt.Sprintf(
						"draw %d: catalog %.12s differs from wide_shallow's %.12s", d, got, want))
				}
			}
		}
		if traced {
			fmt.Fprintf(os.Stderr, "bench: %s, traced\n", w.Name)
			tr, err := runWorkload(w, e, seed, seconds, true, smoke)
			if err != nil {
				return nil, fmt.Errorf("%s (traced): %w", w.Name, err)
			}
			res.PerLayer, res.Unverified = tr.PerLayer, tr.Unverified
			res.Attempted += tr.Attempted
			res.Failed += tr.Failed
			res.Failures = append(res.Failures, tr.Failures...)
		}
		rs.Workloads = append(rs.Workloads, res)
	}
	return rs, nil
}
