package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// results is the result file of one invocation.
type results struct {
	Env       envStamp          `json:"env"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Repeats   int               `json:"repeats"`
	Workloads []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name string `json:"name"`
	// Invalid says why the workload was not run; "" when it was.
	Invalid    string `json:"invalid,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Cycles     sizes  `json:"cycles"`
	Digest     string `json:"sim_digest"`
	// OpsFailedFrac is simulated: operations created in warm-up and the
	// timed window and not delivered by the end of the drain, or every
	// operation of a run that failed a check, over operations created.
	OpsFailedFrac float64            `json:"ops_failed_frac"`
	Attempted     int64              `json:"attempted"`
	Failed        int64              `json:"failed"`
	EndToEnd      map[string]summary `json:"end_to_end,omitempty"`
	PerLayer      map[string]summary `json:"per_layer,omitempty"`
	DriftPct      []float64          `json:"drift_pct"`
	Flags         []string           `json:"flags,omitempty"`
	Failures      []string           `json:"failures,omitempty"`
	Runs          []*runRecord       `json:"runs"`
}

type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarizeValues(unit string, vs []float64) summary {
	s := summary{Unit: unit, Median: median(vs), N: len(vs), Values: vs}
	if len(vs) > 0 {
		sorted := append([]float64(nil), vs...)
		sort.Float64s(sorted)
		s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	}
	return s
}

// spread is the run-to-run spread of a metric as a share of its median: the
// distance between the quartiles as Python's statistics.quantiles(n=4)
// gives them, or the whole range when there are too few values for that.
func spread(vs []float64) float64 {
	m := median(vs)
	if len(vs) < 2 || m == 0 {
		return 0
	}
	if len(vs) < 4 {
		s := append([]float64(nil), vs...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	return (quartile(vs, 3) - quartile(vs, 1)) / math.Abs(m)
}

// quartile is the k-th quartile of vs as Python's statistics.quantiles(n=4)
// gives it.
func quartile(vs []float64, k int) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := float64(k*(len(s)+1)) / 4
	i := int(pos)
	if i < 1 {
		return s[0]
	}
	if i >= len(s) {
		return s[len(s)-1]
	}
	return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
}

// store keeps the latest record of each (workload, traced) pair, in memory
// for this invocation and under bench/out for the next, because some checks
// and ratios need a second run: traced against untraced, two workers against
// one, the 32×32 mesh against the 8×8 one.
type store struct {
	dir string
	env envStamp
	mem map[string][]*runRecord
}

func storeKey(workload string, traced bool) string {
	return workload + "-t" + traceFlag(traced)
}

type storedRecord struct {
	Env    envStamp   `json:"env"`
	Record *runRecord `json:"record"`
}

func (s *store) put(rec *runRecord) {
	if s.mem == nil {
		s.mem = map[string][]*runRecord{}
	}
	k := storeKey(rec.Workload, rec.Traced)
	s.mem[k] = append(s.mem[k], rec)
	if buf, err := json.Marshal(storedRecord{s.env, rec}); err == nil {
		// A record that cannot be kept only costs a later run its partner.
		_ = os.WriteFile(filepath.Join(s.dir, "last-"+k+".json"), buf, 0o644)
	}
}

// get returns the runs of workload that were asked for the same thing as
// like: same seed, same seconds. A record left on disk counts only if it came
// from the same source tree.
func (s *store) get(workload string, traced bool, like *runRecord) []*runRecord {
	k := storeKey(workload, traced)
	recs := s.mem[k]
	if len(recs) == 0 {
		var sr storedRecord
		buf, err := os.ReadFile(filepath.Join(s.dir, "last-"+k+".json"))
		if err != nil || json.Unmarshal(buf, &sr) != nil || sr.Record == nil {
			return nil
		}
		if sr.Env.Commit != s.env.Commit || sr.Env.Dirty || s.env.Dirty {
			return nil
		}
		recs = []*runRecord{sr.Record}
	}
	var out []*runRecord
	for _, r := range recs {
		if r.Seed == like.Seed && r.Seconds == like.Seconds {
			out = append(out, r)
		}
	}
	return out
}

// crossCheck holds a new record's digest against every earlier run that must
// agree with it: other repeats, the run with tracing the other way (tracing
// only observes), and the same mesh at the other worker count (the engine is
// bit-exact across worker counts).
func (s *store) crossCheck(rec *runRecord) {
	twins := []string{rec.Workload}
	switch rec.Workload {
	case "mesh32-serial":
		twins = append(twins, "mesh32-w2")
	case "mesh32-w2":
		twins = append(twins, "mesh32-serial")
	}
	for _, name := range twins {
		for _, traced := range []bool{false, true} {
			for _, other := range s.get(name, traced, rec) {
				if other.Digest != rec.Digest {
					rec.failf("digest %s, but %s (traced=%v) gave %s for the same seed and cycles",
						rec.Digest, name, traced, other.Digest)
					rec.Failed = rec.Attempted
				}
			}
		}
	}
}

func medianRate(recs []*runRecord) float64 {
	vs := make([]float64, len(recs))
	for i, r := range recs {
		vs[i] = r.CyclesPerS
	}
	return median(vs)
}

// summarize folds a workload's runs into its summaries and fills in the
// metrics that need a second run.
func (wr *workloadResult) summarize(st *store) {
	e2e := map[string][]float64{}
	for _, rec := range wr.Runs {
		wr.Digest = rec.Digest
		wr.Attempted += rec.Attempted
		wr.Failed += rec.Failed
		wr.DriftPct = append(wr.DriftPct, rec.DriftPct)
		wr.Flags = append(wr.Flags, rec.Flags...)
		wr.Failures = append(wr.Failures, rec.Failures...)
		if !rec.Traced {
			for _, d := range endToEnd {
				e2e[d.Name] = append(e2e[d.Name], rec.Values[d.Name])
			}
			continue
		}
		v := rec.Values
		if un := st.get(wr.Name, false, rec); len(un) > 0 {
			u := medianRate(un)
			v[mTraceOverhead] = 100 * (u - rec.CyclesPerS) / u
		}
		switch wr.Name {
		case "mesh32-serial":
			if small := st.get("quad8", true, rec); len(small) > 0 {
				v[mRouterLocality] = ratio(v[mComputePerTick], small[0].Values[mComputePerTick])
				v[mLinkLocality] = ratio(v[mLinkPerVisit], small[0].Values[mLinkPerVisit])
			}
		case "mesh32-w2":
			two, one := st.get(wr.Name, false, rec), st.get("mesh32-serial", false, rec)
			if len(two) > 0 && len(one) > 0 {
				v[mParallelEff] = medianRate(two) / (float64(wr.Workers) * medianRate(one))
			}
		}
		wr.PerLayer = map[string]summary{}
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = summarizeValues(d.Unit, []float64{v[d.Name]})
		}
	}
	if len(e2e) > 0 {
		wr.EndToEnd = map[string]summary{}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = summarizeValues(d.Unit, e2e[d.Name])
		}
	}
	if wr.Attempted > 0 {
		wr.OpsFailedFrac = float64(wr.Failed) / float64(wr.Attempted)
	}
}

func (wr *workloadResult) print(w io.Writer) {
	if wr.Invalid != "" {
		fmt.Fprintf(w, "\n== %s: invalid, not run (%s)\n", wr.Name, wr.Invalid)
		return
	}
	c := wr.Cycles
	fmt.Fprintf(w, "\n== %s  GOMAXPROCS=%d workers=%d  cycles: warm-up %d + timed %d + drain <= %d (per leg)  sim_digest=%s\n",
		wr.Name, wr.GOMAXPROCS, wr.Workers, c.Warmup, c.Timed, c.Drain, wr.Digest)
	row := func(name string, s summary) {
		fmt.Fprintf(w, "  %-44s %-9s %14.6g %14.6g %14.6g %3d\n", name, s.Unit, s.Median, s.Min, s.Max, s.N)
	}
	fmt.Fprintf(w, "  %-44s %-9s %14s %14s %14s %3s\n", "metric", "unit", "median", "min", "max", "n")
	for _, d := range endToEnd {
		if s, ok := wr.EndToEnd[d.Name]; ok {
			row(d.Name, s)
		}
	}
	fmt.Fprintf(w, "  %-44s %-9s %14.6g   (%d of %d operations; simulated)\n", "ops_failed_frac", "ratio",
		wr.OpsFailedFrac, wr.Failed, wr.Attempted)
	fmt.Fprintf(w, "  %-44s %-9s %14.1f   (cycles/s of the second half of the window against the first, per run)\n", "drift_pct", "%", wr.DriftPct)
	for _, rec := range wr.Runs {
		if red := reductions(rec.Legs); red != nil {
			fmt.Fprintf(w, "  average APL reduction against %s, simulated %% (paper %%):", schemeRORR)
			for _, s := range panelSchemes[1:] {
				fmt.Fprintf(w, "  %s %.2f (%.1f)", s, red[s], paperReductionPct[s])
			}
			fmt.Fprintln(w)
			break
		}
	}
	for _, d := range perLayer {
		if s, ok := wr.PerLayer[d.Name]; ok {
			row(d.Name, s)
		}
	}
	for _, f := range wr.Flags {
		fmt.Fprintf(w, "  FLAG %s\n", f)
	}
	for _, f := range wr.Failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

func (r *results) print(w io.Writer) {
	e := r.Env
	fmt.Fprintf(w, "\nenvironment: %d CPUs, %s %s/%s, commit %s (dirty=%v), seed %d, %d s windows, %d untraced repeats\n",
		e.NumCPU, e.GoVersion, e.GOOS, e.GOARCH, e.Commit, e.Dirty, r.Seed, r.Seconds, r.Repeats)
}

func (r *results) write(path string) error {
	buf, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// driverLine prints the one-object summary of a single-workload, single-pass
// invocation as the last line of standard output.
func (wr *workloadResult) driverLine(w io.Writer, traced bool) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(wr.Failures) == 0, wr.Attempted, wr.Failed, map[string]value{}}
	sums := wr.EndToEnd
	if traced {
		sums = wr.PerLayer
	}
	for name, s := range sums {
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}
