package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"text/tabwriter"
)

// verdict judges B against A on one metric. The change is B's median
// relative to A's, signed so that positive is worse. A metric whose repeats
// inside either run spread wider than its bound cannot carry a claim either
// way: it is unresolved, not unchanged.
func verdict(d metricDef, a, b stat) string {
	switch worse := worsening(d, a, b); {
	case d.Bound == 0:
		return "info"
	case math.Max(a.spread(), b.spread()) > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "same"
}

// worsening is the share of A's median by which B is worse (negative:
// better).
func worsening(d metricDef, a, b stat) float64 {
	if a.Median == 0 {
		return 0
	}
	change := (b.Median - a.Median) / math.Abs(a.Median)
	if d.Better == "higher" {
		return -change
	}
	return change
}

// compareFiles prints one row per workload and metric of two results files,
// B against the base A, and fails when any row is worse.
func compareFiles(out io.Writer, m *manifest, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	worse, err := compareResults(out, m, a, b)
	if err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound allows", worse)
	}
	return nil
}

func compareResults(out io.Writer, m *manifest, a, b *results) (worse int, err error) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tA (base)\tB\tB/A\tbound\tspread\tverdict\n")
	for _, wa := range a.Workloads {
		wb := b.find(wa.Workload)
		if wb == nil {
			continue
		}
		// Different inputs measure different work; a changed generator must
		// show as a refusal, not as a moved baseline.
		if wa.InputSHA256 != wb.InputSHA256 {
			return 0, fmt.Errorf("%s: input fingerprints differ (%.12s, %.12s): the runs did not measure the same input",
				wa.Workload, wa.InputSHA256, wb.InputSHA256)
		}
		for _, d := range m.endToEndDefs() {
			sa, okA := wa.EndToEnd[d.Name]
			sb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			v := verdict(d, sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.4f\t%.2f\t%.3f\t%s\n", wa.Workload, d.Name,
				sa.Median, d.Unit, sb.Median, sb.Median/sa.Median, d.Bound, math.Max(sa.spread(), sb.spread()), v)
		}
		// Any increase in the share of failed operations is a regression.
		v := "same"
		if wb.failedFrac() > wa.failedFrac() {
			v = "worse"
			worse++
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g ratio\t%.6g\t\t0\t\t%s\n", wa.Workload, wa.failedFrac(), wb.failedFrac(), v)
	}
	return worse, tw.Flush()
}

// selfCheck measures how far the end-to-end metrics of this code disagree
// with themselves: the whole set `runs` times, each with the next seed, as
// the acceptance procedure does. With four or more runs the spread is the
// interquartile range over the median; below that, the range over the
// median. It writes the spreads beside the bounds to spreads.json and fails
// when a gated metric's spread exceeds its bound.
func selfCheck(out io.Writer, m *manifest, e *env, seed uint64, seconds float64, smoke bool, runs int) error {
	if runs < 2 {
		return fmt.Errorf("-selfcheck needs at least two runs")
	}
	var sets []*results
	for i := 0; i < runs; i++ {
		rs, err := runAll(e, seed+uint64(i), seconds, smoke, false)
		if err != nil {
			return err
		}
		if err := writeJSON(filepath.Join(e.out, fmt.Sprintf("selfcheck-%d.json", i)), rs); err != nil {
			return err
		}
		sets = append(sets, rs)
	}
	type row struct {
		Workload string    `json:"workload"`
		Metric   string    `json:"metric"`
		Unit     string    `json:"unit"`
		Values   []float64 `json:"values"`
		Median   float64   `json:"median"`
		Spread   float64   `json:"spread"`
		Bound    float64   `json:"bound"`
		Within   bool      `json:"within"`
	}
	var rows []row
	beyond := 0
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian\tspread\tbound\t\n")
	for _, w := range sets[0].Workloads {
		if w.Failed > 0 {
			beyond++
			fmt.Fprintf(tw, "%s\tfailed %d of %d: %v\t\t\t\t\n", w.Workload, w.Failed, w.Attempted, w.Failures)
		}
		for _, d := range m.endToEndDefs() {
			var values []float64
			for _, rs := range sets {
				if s, ok := rs.find(w.Workload).EndToEnd[d.Name]; ok {
					values = append(values, s.Median)
				}
			}
			if len(values) < 2 {
				continue
			}
			r := row{Workload: w.Workload, Metric: d.Name, Unit: d.Unit, Values: values, Median: medianOf(values), Bound: d.Bound}
			if s := sorted(values); len(s) >= 4 {
				r.Spread = quartileSpread(s)
			} else if r.Median != 0 {
				r.Spread = (s[len(s)-1] - s[0]) / math.Abs(r.Median)
			}
			r.Within = d.Bound == 0 || r.Spread <= d.Bound
			flag := ""
			if !r.Within {
				flag = "BEYOND BOUND"
				beyond++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.4f\t%.2f\t%s\n", r.Workload, r.Metric, r.Median, r.Unit, r.Spread, r.Bound, flag)
			rows = append(rows, r)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(e.out, "spreads.json"), rows); err != nil {
		return err
	}
	if beyond > 0 {
		return fmt.Errorf("%d metrics disagree with themselves beyond their bound", beyond)
	}
	return nil
}
