package harness

import (
	"fmt"

	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/stats"
	"rair/internal/traffic"
)

// synthCfg is the router configuration for the synthetic-traffic
// experiments: one message class, Table 1 VC parameters.
func synthCfg() router.Config { return router.DefaultConfig(1) }

// SweepResult holds APL per scheme per sweep point per application: the
// common shape of Figures 9 and 10.
type SweepResult struct {
	Title   string
	XLabel  string
	Xs      []float64
	Schemes []string
	// APL[scheme][xIdx][app].
	APL [][][]float64
}

// Table renders the sweep as one row per (scheme, x).
func (r *SweepResult) Table() *Table {
	t := &Table{Title: r.Title, Header: []string{"scheme", r.XLabel, "APL App0", "APL App1"}}
	for si, s := range r.Schemes {
		for xi, x := range r.Xs {
			row := []string{s, fmt.Sprintf("%.0f%%", 100*x)}
			for _, apl := range r.APL[si][xi] {
				row = append(row, f2(apl))
			}
			t.AddRow(row...)
		}
	}
	return t
}

// runSweep executes scheme × p-point simulations of a two-app scenario in
// parallel.
func runSweep(title string, schemes []Scheme, ps []float64, dur Durations, seed uint64,
	scenario func(p float64) (*region.Map, []traffic.AppTraffic), apps int) *SweepResult {
	var rcs []RunConfig
	for _, s := range schemes {
		for _, p := range ps {
			regs, tr := scenario(p)
			rcs = append(rcs, RunConfig{
				Regions: regs, Router: synthCfg(), Apps: tr,
				Scheme: s, Dur: dur, Seed: seed,
			})
		}
	}
	cols := RunParallel(rcs)
	res := &SweepResult{Title: title, XLabel: "p", Xs: ps}
	i := 0
	for _, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		perX := make([][]float64, len(ps))
		for xi := range ps {
			perApp := make([]float64, apps)
			for a := 0; a < apps; a++ {
				perApp[a] = cols[i].App(a).Mean()
			}
			perX[xi] = perApp
			i++
		}
		res.APL = append(res.APL, perX)
	}
	return res
}

// Fig9MSP reproduces Figure 9: the impact of multi-stage prioritization in
// the two-application scenario, sweeping the inter-region fraction p.
// Schemes: RO_RR, RAIR with MSP at VA only, RAIR with MSP at VA+SA.
func Fig9MSP(dur Durations, ps []float64, seed uint64) *SweepResult {
	schemes := []Scheme{RORR(), RAIRVA(), RAIR("RAIR_VA+SA")}
	return runSweep("Figure 9: impact of MSP (APL vs inter-region fraction p)",
		schemes, ps, dur, seed, Fig9Scenario, 2)
}

// Fig10Routing reproduces Figure 10: the impact of the routing algorithm.
// Schemes: RO_RR and RAIR, each with local adaptive selection and DBAR.
func Fig10Routing(dur Durations, ps []float64, seed uint64) *SweepResult {
	schemes := []Scheme{
		RORR(),                 // RO_RR_Local
		RAIR("RAIR_Local"),     // RAIR + local selection
		RORRDBAR("RO_RR_DBAR"), // DBAR routing alone
		RAIRDBAR("RAIR_DBAR"),  // RAIR + DBAR
	}
	return runSweep("Figure 10: impact of routing algorithm (APL vs p)",
		schemes, ps, dur, seed, Fig9Scenario, 2)
}

// FigResult holds APL per scheme per application plus reductions versus the
// first scheme (the RO_RR baseline): the shape of Figures 12 and 14.
type FigResult struct {
	Title   string
	Schemes []string
	Apps    []int
	// APL[scheme][app].
	APL [][]float64
}

// Reduction returns the APL reduction of scheme si for app ai versus the
// baseline scheme 0.
func (r *FigResult) Reduction(si, ai int) float64 {
	return stats.Reduction(r.APL[0][ai], r.APL[si][ai])
}

// AvgReduction returns the mean per-app APL reduction of scheme si versus
// the baseline.
func (r *FigResult) AvgReduction(si int) float64 {
	sum := 0.0
	for ai := range r.Apps {
		sum += r.Reduction(si, ai)
	}
	return sum / float64(len(r.Apps))
}

// Table renders APLs and reductions versus the baseline.
func (r *FigResult) Table() *Table {
	t := &Table{Title: r.Title}
	t.Header = []string{"scheme"}
	for _, a := range r.Apps {
		t.Header = append(t.Header, fmt.Sprintf("App%d APL", a))
	}
	t.Header = append(t.Header, "avg reduction vs "+r.Schemes[0])
	for si, s := range r.Schemes {
		row := []string{s}
		for ai := range r.Apps {
			row = append(row, f2(r.APL[si][ai]))
		}
		if si == 0 {
			row = append(row, "-")
		} else {
			row = append(row, pct(r.AvgReduction(si)))
		}
		t.AddRow(row...)
	}
	return t
}

// runFig executes one scenario under several schemes in parallel.
func runFig(title string, regs *region.Map, apps []traffic.AppTraffic, cfg router.Config,
	schemes []Scheme, dur Durations, seed uint64) *FigResult {
	rcs := make([]RunConfig, len(schemes))
	for i, s := range schemes {
		rcs[i] = RunConfig{Regions: regs, Router: cfg, Apps: apps, Scheme: s, Dur: dur, Seed: seed}
	}
	cols := RunParallel(rcs)
	res := figFromCols(regs, apps, schemes, cols)
	res.Title = title
	return res
}

// figFromCols assembles a FigResult from already-run collectors (one per
// scheme, in scheme order).
func figFromCols(regs *region.Map, apps []traffic.AppTraffic, schemes []Scheme, cols []*stats.Collector) *FigResult {
	res := &FigResult{}
	for a := range apps {
		res.Apps = append(res.Apps, apps[a].App)
	}
	for i, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		perApp := make([]float64, len(res.Apps))
		for ai, a := range res.Apps {
			perApp[ai] = cols[i].App(a).Mean()
		}
		res.APL = append(res.APL, perApp)
	}
	return res
}

// Fig12DPA reproduces Figure 12: the need for dynamic priority adaptation,
// on both load-heterogeneity scenarios of Figure 11.
func Fig12DPA(v Fig12Variant, dur Durations, seed uint64) *FigResult {
	regs, apps := Fig12Scenario(v)
	name := "(a) low apps send into App3"
	if v == Fig12B {
		name = "(b) App3 sends out"
	}
	schemes := []Scheme{RORR(), RAIRNativeH(), RAIRForeignH(), RAIR("RAIR_DPA")}
	return runFig("Figure 12"+name, regs, apps, synthCfg(), schemes, dur, seed)
}

// fig14Schemes are the four techniques compared in Figures 14-17.
func fig14Schemes() []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank(SixAppRanks()), RAIR("RA_RAIR")}
}

// Fig14SixApp reproduces Figure 14: the six-application generic RNoC with
// uniform-random global traffic.
func Fig14SixApp(dur Durations, seed uint64) *FigResult {
	regs, apps := Fig14Scenario("UR")
	return runFig("Figure 14: six-application scenario (UR global traffic)",
		regs, apps, synthCfg(), fig14Schemes(), dur, seed)
}

// PatternResult holds the average APL reduction versus RO_RR per global
// traffic pattern (Figure 15).
type PatternResult struct {
	Patterns []string
	Schemes  []string // excluding the RO_RR baseline
	// AvgReduction[pattern][scheme].
	AvgReduction [][]float64
}

// Table renders the pattern sweep.
func (r *PatternResult) Table() *Table {
	t := &Table{
		Title:  "Figure 15: average APL reduction vs RO_RR per global traffic pattern",
		Header: append([]string{"pattern"}, r.Schemes...),
	}
	for pi, p := range r.Patterns {
		row := []string{p}
		for si := range r.Schemes {
			row = append(row, pct(r.AvgReduction[pi][si]))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig15Patterns reproduces Figure 15: the six-application scenario across
// the four synthetic global-traffic patterns.
func Fig15Patterns(dur Durations, seed uint64) *PatternResult {
	patterns := []string{"UR", "TP", "BC", "HS"}
	res := &PatternResult{Patterns: patterns}
	for _, s := range fig14Schemes()[1:] {
		res.Schemes = append(res.Schemes, s.Name)
	}
	for _, p := range patterns {
		regs, apps := Fig14Scenario(p)
		fig := runFig("", regs, apps, synthCfg(), fig14Schemes(), dur, seed)
		perScheme := make([]float64, 0, len(res.Schemes))
		for si := 1; si < len(fig.Schemes); si++ {
			perScheme = append(perScheme, fig.AvgReduction(si))
		}
		res.AvgReduction = append(res.AvgReduction, perScheme)
	}
	return res
}

// DeltaResult is the Section IV.C hysteresis ablation: average APL
// reduction versus RO_RR as a function of Δ.
type DeltaResult struct {
	Deltas       []float64
	AvgReduction []float64
}

// Table renders the Δ sweep.
func (r *DeltaResult) Table() *Table {
	t := &Table{
		Title:  "DPA hysteresis ablation: avg APL reduction vs RO_RR per Δ",
		Header: []string{"delta", "avg reduction"},
	}
	for i, d := range r.Deltas {
		t.AddRow(fmt.Sprintf("%.2f", d), pct(r.AvgReduction[i]))
	}
	return t
}

// AblateDelta sweeps the DPA hysteresis width on the six-application
// scenario; the paper observes Δ between 0.1 and 0.3 works best, peaking
// around 0.2.
func AblateDelta(deltas []float64, dur Durations, seed uint64) *DeltaResult {
	regs, apps := Fig14Scenario("UR")
	schemes := []Scheme{RORR()}
	for _, d := range deltas {
		schemes = append(schemes, RAIRDelta(d))
	}
	fig := runFig("", regs, apps, synthCfg(), schemes, dur, seed)
	res := &DeltaResult{Deltas: deltas}
	for si := 1; si < len(fig.Schemes); si++ {
		res.AvgReduction = append(res.AvgReduction, fig.AvgReduction(si))
	}
	return res
}

// VCSplitResult is the Section VI ablation over the regional/global VC
// split.
type VCSplitResult struct {
	GlobalVCs    []int
	AvgReduction []float64
}

// Table renders the VC split ablation.
func (r *VCSplitResult) Table() *Table {
	t := &Table{
		Title:  "VC regionalization split ablation (of 4 adaptive VCs)",
		Header: []string{"global VCs", "regional VCs", "avg reduction vs RO_RR"},
	}
	for i, g := range r.GlobalVCs {
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%d", 4-g), pct(r.AvgReduction[i]))
	}
	return t
}

// AblateVCSplit varies how many of the four adaptive VCs are tagged global
// on the six-application scenario. The paper argues a roughly even split
// supports generic traffic best.
func AblateVCSplit(splits []int, dur Durations, seed uint64) *VCSplitResult {
	regs, apps := Fig14Scenario("UR")
	var rcs []RunConfig
	base := RunConfig{Regions: regs, Router: synthCfg(), Apps: apps, Scheme: RORR(), Dur: dur, Seed: seed}
	rcs = append(rcs, base)
	for _, g := range splits {
		cfg := synthCfg()
		cfg.GlobalVCs = g
		rcs = append(rcs, RunConfig{
			Regions: regs, Router: cfg, Apps: apps,
			Scheme: RAIR(fmt.Sprintf("RAIR_G%d", g)), Dur: dur, Seed: seed,
		})
	}
	cols := RunParallel(rcs)
	avg := func(c *stats.Collector) float64 {
		sum := 0.0
		for a := range apps {
			sum += stats.Reduction(cols[0].App(apps[a].App).Mean(), c.App(apps[a].App).Mean())
		}
		return sum / float64(len(apps))
	}
	res := &VCSplitResult{GlobalVCs: splits}
	for i := range splits {
		res.AvgReduction = append(res.AvgReduction, avg(cols[i+1]))
	}
	return res
}

// Heatmap runs the six-application scenario under a scheme and renders the
// per-router link-utilization heatmap — a visual check that congestion
// concentrates where the scenario intends (the heavy regions and the MC
// corners).
func Heatmap(schemeName string, dur Durations, seed uint64) (string, error) {
	s, err := SchemeByName(schemeName)
	if err != nil {
		return "", err
	}
	regs, apps := Fig14Scenario("UR")
	// No drain: the map and the APL are read at the end of the window.
	dur.Drain = 0
	b := Build(RunConfig{Regions: regs, Router: synthCfg(), Apps: apps, Scheme: s, Dur: dur, Seed: seed})
	defer b.Close()
	col := b.Run()
	return fmt.Sprintf("%s under %s (APL %.2f)\n%s",
		b.Net.UtilizationHeatmap(dur.Warmup+dur.Measure), s.Name, col.APL(),
		"regions: 3x2 grid; apps 1 (top middle) and 5 (bottom right) heavy; MCs at corners\n"), nil
}

// CurvePoint is one latency-load measurement.
type CurvePoint struct {
	Frac       float64 // fraction of saturation
	APL        float64
	Throughput float64 // flits/node/cycle
}

// LatencyLoadCurve measures the latency-load curve of chip-wide uniform
// random traffic under RO_RR (the supporting saturation characterization).
func LatencyLoadCurve(fracs []float64, dur Durations, seed uint64) []CurvePoint {
	var rcs []RunConfig
	for _, f := range fracs {
		regs, apps := UniformScenario(f)
		rcs = append(rcs, RunConfig{Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: RORR(), Dur: dur, Seed: seed})
	}
	cols := RunParallel(rcs)
	out := make([]CurvePoint, len(fracs))
	for i, f := range fracs {
		out[i] = CurvePoint{Frac: f, APL: cols[i].APL(), Throughput: cols[i].FlitThroughput(64)}
	}
	return out
}
