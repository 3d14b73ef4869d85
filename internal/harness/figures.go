package harness

import (
	"fmt"

	"rair/internal/router"
	"rair/internal/traffic"
)

// synthCfg is the router configuration for the synthetic-traffic
// experiments: one message class, Table 1 VC parameters.
func synthCfg() router.Config { return router.DefaultConfig(1) }

// sweepPanel runs the two-application scenario of Figure 8 under each scheme
// at each inter-region fraction: rows scheme-major, one per (scheme, p).
func sweepPanel(title string, schemes []Scheme, ps []float64, dur Durations, seed uint64) *Panel {
	var rcs []RunConfig
	var labels []string
	for _, s := range schemes {
		for _, p := range ps {
			regs, apps := Fig9Scenario(p)
			rcs = append(rcs, synthRun(regs, apps, s, dur, seed))
			labels = append(labels, s.Name)
		}
	}
	return runPanel(title, labels, rcs, appNames("App", 2))
}

// Fig9MSP reproduces Figure 9: the impact of multi-stage prioritization in
// the two-application scenario, sweeping the inter-region fraction p.
// Schemes: RO_RR, RAIR with MSP at VA only, RAIR with MSP at VA+SA.
func Fig9MSP(dur Durations, ps []float64, seed uint64) *Panel {
	return sweepPanel("Figure 9: impact of MSP (APL vs inter-region fraction p)",
		[]Scheme{RORR(), scheme("RAIR_VA", ""), RAIR("RAIR_VA+SA")}, ps, dur, seed)
}

// Fig10Routing reproduces Figure 10: the impact of the routing algorithm.
// Schemes: RO_RR (the figure's RO_RR_Local) and RAIR, each with local
// adaptive selection and with DBAR.
func Fig10Routing(dur Durations, ps []float64, seed uint64) *Panel {
	return sweepPanel("Figure 10: impact of routing algorithm (APL vs p)",
		[]Scheme{RORR(), RAIR("RAIR_Local"), RORRDBAR("RO_RR_DBAR"), scheme("RAIR_DBAR", "")}, ps, dur, seed)
}

// Fig12DPA reproduces Figure 12: the need for dynamic priority adaptation,
// on both load-heterogeneity scenarios of Figure 11.
func Fig12DPA(v Fig12Variant, dur Durations, seed uint64) *Panel {
	regs, apps := Fig12Scenario(v)
	name := "(a) low apps send into App3"
	if v == Fig12B {
		name = "(b) App3 sends out"
	}
	schemes := []Scheme{RORR(), scheme("RAIR_NativeH", ""), scheme("RAIR_ForeignH", ""), RAIR("RAIR_DPA")}
	return schemePanel("Figure 12"+name, regs, apps, schemes, dur, seed)
}

// comparedSchemes are the four techniques compared in Figures 14-17 and the
// co-run extensions; ranks is RO_Rank's oracle ranking for the scenario.
func comparedSchemes(ranks []int) []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank(ranks), RAIR("RA_RAIR")}
}

// Fig14SixApp reproduces Figure 14: the six-application generic RNoC with
// uniform-random global traffic.
func Fig14SixApp(dur Durations, seed uint64) *Panel {
	regs, apps := Fig14Scenario("UR")
	return schemePanel("Figure 14: six-application scenario (UR global traffic)",
		regs, apps, comparedSchemes(SixAppRanks()), dur, seed)
}

// Fig15Patterns reproduces Figure 15: the six-application scenario across
// the four synthetic global-traffic patterns, one panel per pattern (titled
// with it).
func Fig15Patterns(dur Durations, seed uint64) []*Panel {
	var panels []*Panel
	for _, pattern := range traffic.PatternNames {
		regs, apps := Fig14Scenario(pattern)
		panels = append(panels, schemePanel(pattern, regs, apps, comparedSchemes(SixAppRanks()), dur, seed))
	}
	return panels
}

// Fig15Table renders Fig15Patterns: the average reduction versus RO_RR per
// pattern (rows) and scheme (columns).
func Fig15Table(panels []*Panel) *Table {
	t := &Table{
		Title:  "Figure 15: average APL reduction vs RO_RR per global traffic pattern",
		Header: append([]string{"pattern"}, panels[0].Labels[1:]...),
	}
	for _, p := range panels {
		row := []string{p.Title}
		for ri := 1; ri < len(p.Labels); ri++ {
			row = append(row, pct(p.AvgReduction(ri)))
		}
		t.AddRow(row...)
	}
	return t
}

// AblateDelta sweeps the DPA hysteresis width on the six-application
// scenario (Section IV.C): row 0 is RO_RR, then one row per Δ, labelled with
// it. The paper observes Δ between 0.1 and 0.3 works best, peaking around
// 0.2.
func AblateDelta(deltas []float64, dur Durations, seed uint64) *Panel {
	regs, apps := Fig14Scenario("UR")
	rcs := []RunConfig{synthRun(regs, apps, RORR(), dur, seed)}
	labels := []string{"RO_RR"}
	for _, d := range deltas {
		s := RAIR("RAIR")
		s.Policy.Delta = d
		rcs = append(rcs, synthRun(regs, apps, s, dur, seed))
		labels = append(labels, fmt.Sprintf("%.2f", d))
	}
	return runPanel("DPA hysteresis ablation: avg APL reduction vs RO_RR per Δ", labels, rcs, appNames("App", len(apps)))
}

// DeltaTable renders AblateDelta: the average reduction per Δ.
func (p *Panel) DeltaTable() *Table {
	t := &Table{Title: p.Title, Header: []string{"delta", "avg reduction"}}
	for ri := 1; ri < len(p.Labels); ri++ {
		t.AddRow(p.Labels[ri], pct(p.AvgReduction(ri)))
	}
	return t
}

// AblateVCSplit varies how many of the four adaptive VCs are tagged global
// on the six-application scenario (Section VI): row 0 is RO_RR, then one row
// per split. The paper argues a roughly even split supports generic traffic
// best.
func AblateVCSplit(splits []int, dur Durations, seed uint64) *Panel {
	regs, apps := Fig14Scenario("UR")
	rcs := []RunConfig{synthRun(regs, apps, RORR(), dur, seed)}
	labels := []string{"RO_RR"}
	for _, g := range splits {
		rc := synthRun(regs, apps, RAIR(fmt.Sprintf("RAIR_G%d", g)), dur, seed)
		rc.Router.GlobalVCs = g
		rcs = append(rcs, rc)
		labels = append(labels, rc.Scheme.Name)
	}
	return runPanel("VC regionalization split ablation (of 4 adaptive VCs)", labels, rcs, appNames("App", len(apps)))
}

// VCSplitTable renders AblateVCSplit over the splits it ran.
func (p *Panel) VCSplitTable(splits []int) *Table {
	t := &Table{Title: p.Title, Header: []string{"global VCs", "regional VCs", "avg reduction vs RO_RR"}}
	for i, g := range splits {
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%d", 4-g), pct(p.AvgReduction(i+1)))
	}
	return t
}

// LatencyLoadCurve measures the latency-load curve of chip-wide uniform
// random traffic under RO_RR (the supporting saturation characterization):
// one row per fraction of saturation, labelled with it; throughput is read
// from Cols.
func LatencyLoadCurve(fracs []float64, dur Durations, seed uint64) *Panel {
	var rcs []RunConfig
	var labels []string
	for _, f := range fracs {
		regs, apps := UniformScenario(f)
		rcs = append(rcs, synthRun(regs, apps, RORR(), dur, seed))
		labels = append(labels, fmt.Sprintf("%.2f", f))
	}
	return runPanel("", labels, rcs, appNames("App", 1))
}
