package main

import (
	"fmt"
	"io"
	"math"
)

// gateMetrics are compared with a zero bound on top of BENCHMARK.json's
// end-to-end metrics. They stay out of BENCHMARK.json because their
// across-seed spread is not noise: hi_p99_us is the paper's simulated
// output, so any change is a behaviour change rather than a speed-up, and
// fail_frac is zero on every correct run.
var gateMetrics = []specMetric{
	{Name: "hi_p99_us", Unit: "sim_us", Better: "same"},
	{Name: "fail_frac", Unit: "fraction", Better: "lower"},
}

// verdict classifies b against a under a metric's direction and bound
// (a share of a).
func verdict(sm specMetric, a, b float64) string {
	if sm.Better == "same" {
		if a == b {
			return "same"
		}
		return "changed"
	}
	rel := 0.0
	switch {
	case a != 0:
		rel = (b - a) / math.Abs(a)
	case b != 0:
		rel = math.Copysign(math.Inf(1), b)
	}
	if sm.Better == "higher" {
		rel = -rel
	}
	switch {
	case rel > sm.Bound:
		return "worse"
	case rel < -sm.Bound:
		return "better"
	}
	return "within bound"
}

// compare prints, for every workload and end-to-end metric, both values
// and the verdict under the bounds, and exits 1 when any is worse or
// changed. Results from different hosts are compared, but never silently.
func compare(aPath, bPath string, sp spec, stdout, stderr io.Writer) int {
	a, err := readReport(aPath)
	if err == nil {
		var b report
		b, err = readReport(bPath)
		if err == nil {
			return compareReports(a, b, sp, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func compareReports(a, b report, sp spec, w io.Writer) int {
	if a.Host != b.Host {
		fmt.Fprintf(w, "WARNING: the results come from different hosts or runtimes:\n  a: %+v\n  b: %+v\n", a.Host, b.Host)
	}
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "WARNING: the results use different seeds (%d, %d)\n", a.Seed, b.Seed)
	}
	bByName := map[string]result{}
	for _, r := range b.Workloads {
		bByName[r.Name] = r
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-11s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := bByName[ra.Name]
		if !ok {
			fmt.Fprintf(w, "%-12s missing from b\n", ra.Name)
			code = 1
			continue
		}
		for _, sm := range append(append([]specMetric(nil), sp.EndToEnd...), gateMetrics...) {
			ma, okA := ra.Metrics[sm.Name]
			mb, okB := rb.Metrics[sm.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-12s %-11s missing\n", ra.Name, sm.Name)
				code = 1
				continue
			}
			v := verdict(sm, ma.Value, mb.Value)
			if v == "worse" || v == "changed" {
				code = 1
			}
			fmt.Fprintf(w, "%-12s %-11s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n", ra.Name, sm.Name,
				ma.Value, mb.Value, 100*ratio(mb.Value-ma.Value, ma.Value), 100*sm.Bound, v)
		}
	}
	return code
}
