package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// manifest is BENCHMARK.json, as far as rairperf reads it.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	buf, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	m := &manifest{}
	if err := json.Unmarshal(buf, m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return m, nil
}

func readResults(path string) (*results, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &results{}
	if err := json.Unmarshal(buf, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict holds b's values of one metric against a's and the metric's bound:
// "regressed" when b's median is worse than a's by more than the bound,
// "unresolved" when either side's spread is wider than the bound and b's runs
// do not all read better than a's, otherwise "ok".
func verdict(d metricDef, a, b []float64) (delta float64, v string) {
	ma, mb := median(a), median(b)
	delta = ratio(mb-ma, math.Abs(ma))
	worse := delta
	if d.Better == higher {
		worse = -delta
	}
	if spread(a) > d.Bound || spread(b) > d.Bound {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				allBetter = allBetter && ((d.Better == lower && y < x) || (d.Better == higher && y > x))
			}
		}
		if !allBetter {
			return delta, "unresolved"
		}
	}
	if worse > d.Bound {
		return delta, "regressed"
	}
	return delta, "ok"
}

// compareMain is `rairperf compare a.json b.json`: a is the baseline. It
// exits 1 when any metric regressed or a simulated result changed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rairperf compare baseline.json change.json")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "rairperf compare:", err)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	m, err := readManifest(root)
	if err != nil {
		return fail(err)
	}
	a, err := readResults(args[0])
	if err != nil {
		return fail(err)
	}
	b, err := readResults(args[1])
	if err != nil {
		return fail(err)
	}
	byName := map[string]*workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	code := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "a median", "b median", "delta", "a spread", "b spread", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil || wa.Invalid != "" || wb.Invalid != "" {
			fmt.Printf("%-14s not run on both sides\n", wa.Name)
			continue
		}
		for _, d := range m.EndToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			delta, v := verdict(d, sa.Values, sb.Values)
			if v == "regressed" {
				code = 1
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %+8.2f%% %8.2f%% %8.2f%% %6.0f%%  %s\n", wa.Name, d.Name,
				sa.Median, sb.Median, 100*delta, 100*spread(sa.Values), 100*spread(sb.Values), 100*d.Bound, v)
		}
		// What the modelled NoC did repeats exactly for a seed, so between
		// two runs of one seed it is either the same or it changed.
		exact := "same"
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			exact = "not comparable (seed or seconds differ)"
		} else if wa.Digest != wb.Digest || wa.OpsFailedFrac != wb.OpsFailedFrac {
			exact = fmt.Sprintf("CHANGED (%s ops_failed_frac %g -> %s ops_failed_frac %g)",
				wa.Digest, wa.OpsFailedFrac, wb.Digest, wb.OpsFailedFrac)
			code = 1
		}
		fmt.Printf("%-14s %-24s %s\n", wa.Name, "sim_digest", exact)
	}
	return code
}
