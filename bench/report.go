package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is the root BENCHMARK.json: the one list of the metrics the
// driver gates (end_to_end, reported by every workload) and of the per-layer
// metrics, with their units. The program reads its names and units from it,
// so the two cannot drift apart.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadManifest(root string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// detail lists the end-to-end metrics that only one kind of workload has.
// The driver's gate needs every metric from every workload, so these are not
// in BENCHMARK.json's end_to_end; the program reports them beside the gated
// four and `-compare` holds them to the bounds here. pos_err_px and
// mag_abs_err repeat exactly for one seed but move by a factor of two between
// seeds, so they carry no bound (README.md, "Demoted metrics").
var detail = []metricDef{
	{Name: "catalog_wall_s", Unit: "s", Better: "lower", Bound: 0.10},
	{Name: "cpu_core_s", Unit: "s", Better: "lower", Bound: 0.07},
	{Name: "pos_err_px", Unit: "px", Better: "lower"},
	{Name: "mag_abs_err", Unit: "mag", Better: "lower"},
	{Name: "queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "query_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "query_tail_us", Unit: "us", Better: "lower"},
	{Name: "churn_queries_per_s", Unit: "1/s", Better: "higher", Bound: 0.10},
	{Name: "churn_query_p99_us", Unit: "us", Better: "lower", Bound: 0.10},
	{Name: "publish_p50_us", Unit: "us", Better: "lower", Bound: 0.10},
}

// endToEndDefs is the gated metrics followed by the detail ones.
func (m *manifest) endToEndDefs() []metricDef {
	return append(append([]metricDef(nil), m.EndToEnd...), detail...)
}

// workloadResult is one workload's part of a results file.
type workloadResult struct {
	Workload      string             `json:"workload"`
	InputSHA256   string             `json:"input_sha256"`
	CatalogSHA256 []string           `json:"catalog_sha256,omitempty"` // per draw
	Attempted     int                `json:"attempted"`
	Failed        int                `json:"failed"`
	Failures      []string           `json:"failures,omitempty"`
	EndToEnd      map[string]stat    `json:"end_to_end"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
	Unverified    []string           `json:"unverified,omitempty"` // parallel metrics recorded below two cores
}

func newResult(name string) *workloadResult {
	return &workloadResult{Workload: name, EndToEnd: map[string]stat{}}
}

// fail counts n operations as failed; the first few reasons are kept.
func (r *workloadResult) fail(n int, why string) {
	r.Failed += n
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, why)
	}
}

func (r *workloadResult) failedFrac() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// results is a whole results file: every workload, on one machine and commit.
type results struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Smoke      bool              `json:"smoke,omitempty"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workloads  []*workloadResult `json:"workloads"`
}

func newResults(e *env, seed uint64, seconds float64, smoke bool) *results {
	commit := "unknown" // the acceptance checkout is not a git repository
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &results{Seed: seed, Seconds: seconds, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
}

func (rs *results) find(workload string) *workloadResult {
	for _, w := range rs.Workloads {
		if w.Workload == workload {
			return w
		}
	}
	return nil
}

func readResults(path string) (*results, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs results
	if err := json.Unmarshal(raw, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// print writes every metric of the workload by name, with its unit.
func (r *workloadResult) print(w io.Writer, m *manifest) {
	fmt.Fprintf(w, "\n== %s  input %.12s  attempted %d  failed %d (failed_frac %.4g)\n",
		r.Workload, r.InputSHA256, r.Attempted, r.Failed, r.failedFrac())
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, d := range m.endToEndDefs() {
		s, ok := r.EndToEnd[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "   %-24s %14.6g %-5s  min %.6g  max %.6g  n %d  %s\n",
			d.Name, s.Median, d.Unit, s.Min, s.Max, s.N, s.Note)
	}
	if r.PerLayer == nil {
		return
	}
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range m.PerLayer {
		units[d.Name] = d.Unit
	}
	for _, name := range names {
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", name, r.PerLayer[name], units[name])
	}
	if len(r.Unverified) > 0 {
		fmt.Fprintf(w, "   unverified (nproc < 2, counts only): %s\n", strings.Join(r.Unverified, " "))
	}
}

// driverLine is the last line of a driver-mode run: with trace off every
// gated end-to-end metric, with trace on every per-layer metric. A layer the
// workload never enters reports 0.
func (r *workloadResult) driverLine(m *manifest, traced bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, d := range m.PerLayer {
			metrics[d.Name] = value{r.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range m.EndToEnd {
			s, ok := r.EndToEnd[d.Name]
			if !ok {
				return nil, fmt.Errorf("%s produced no %s", r.Workload, d.Name)
			}
			metrics[d.Name] = value{s.Median, d.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}
