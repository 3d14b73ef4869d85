package harness

import (
	"fmt"

	"rair/internal/router"
)

// synthCfg is the router configuration for the synthetic-traffic
// experiments: one message class, Table 1 VC parameters.
func synthCfg() router.Config { return router.DefaultConfig(1) }

// DeltaSchemes is RO_RR, then RA_RAIR at each DPA hysteresis width Δ,
// labelled with it (Section IV.C).
func DeltaSchemes(deltas ...float64) []Scheme {
	schemes := []Scheme{RORR()}
	for _, d := range deltas {
		s := RAIR(fmt.Sprintf("%.2f", d))
		s.Policy.Delta = d
		schemes = append(schemes, s)
	}
	return schemes
}

// VCSplitPoints is the six-application scenario under RO_RR, its baseline,
// then with each number of the four adaptive VCs tagged global (Section
// VI).
func VCSplitPoints(splits ...int) []Point {
	base := Fig14Scenario("UR")
	pts := []Point{base}
	pts[0].Label, pts[0].Scheme = "RO_RR", RORR()
	for _, g := range splits {
		pt := base
		pt.Label, pt.Router = fmt.Sprintf("G%d", g), synthCfg()
		pt.Router.GlobalVCs = g
		pts = append(pts, pt)
	}
	return pts
}

// Fig15Table renders the six-application scenario across global patterns:
// the average reduction versus RO_RR per pattern (rows) and scheme
// (columns).
func Fig15Table(title string, _ []Point, ps []*Panel) *Table {
	t := &Table{Title: title, Header: append([]string{"pattern"}, ps[0].Labels[1:]...)}
	for _, p := range ps {
		row := []string{p.Title}
		for ri := 1; ri < len(p.Labels); ri++ {
			row = append(row, pct(p.AvgReduction(ri)))
		}
		t.AddRow(row...)
	}
	return t
}

// DeltaTable renders the DeltaSchemes axis: the average reduction per Δ,
// to three decimals, since the delta claim reads differences of a few
// thousandths of a percent.
func DeltaTable(title string, _ []Point, ps []*Panel) *Table {
	p := ps[0]
	t := &Table{Title: title, Header: []string{"delta", "avg reduction"}}
	for ri := 1; ri < len(p.Labels); ri++ {
		t.AddRow(p.Labels[ri], fmt.Sprintf("%+.3f%%", 100*p.AvgReduction(ri)))
	}
	return t
}

// VCSplitTable renders the VCSplitPoints axis: each split's average
// reduction against the baseline point, to three decimals as DeltaTable's.
func VCSplitTable(title string, pts []Point, ps []*Panel) *Table {
	t := &Table{Title: title, Header: []string{"global VCs", "regional VCs", "avg reduction vs RO_RR"}}
	all := &Panel{Apps: ps[0].Apps}
	for _, p := range ps {
		all.APL = append(all.APL, p.APL[0])
	}
	for i, pt := range pts[1:] {
		r := pt.Router
		t.AddRow(fmt.Sprintf("%d", r.GlobalVCs), fmt.Sprintf("%d", r.AdaptiveVCs-r.GlobalVCs), fmt.Sprintf("%+.3f%%", 100*all.AvgReduction(i+1)))
	}
	return t
}

// ScaleTable renders a scalability axis run under RO_RR and RA_RAIR: per
// point, the mesh and region counts, each scheme's mean APL and RAIR's
// average reduction (Section VI).
func ScaleTable(title string, pts []Point, ps []*Panel) *Table {
	t := &Table{Title: title, Header: []string{"config", "nodes", "regions", "RO_RR APL", "RA_RAIR APL", "avg reduction"}}
	for i, p := range ps {
		apl := func(ri, ai int) float64 { return p.APL[ri][ai] }
		regs := pts[i].Regions
		t.AddRow(p.Title, fmt.Sprintf("%d", regs.Mesh().N()), fmt.Sprintf("%d", regs.NumApps()),
			f2(p.appMean(0, apl)), f2(p.appMean(1, apl)), pct(p.AvgReduction(1)))
	}
	return t
}
