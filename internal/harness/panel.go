package harness

import (
	"fmt"

	"rair/internal/router"
	"rair/internal/stats"
)

// Panel is the one result shape of the evaluation: a list of runs and each
// application's APL in each. Reduction reads a row against row 0 (the RO_RR
// baseline of every scheme panel). In a co-run panel a row is a pair of runs
// — the applications alone (Base) and beside an aggressor (APL, Cols) — and
// Slowdown reads the one against the other.
type Panel struct {
	Title  string
	Labels []string // one per row: the scheme, or the swept value
	Apps   []string // one per column; column i is application i
	// APL[row][app]; Base[row][app] is set in co-run panels only.
	APL, Base [][]float64
	// Cols holds the collector behind each APL row, for what a driver
	// reports beyond per-application means.
	Cols []*stats.Collector
}

// newPanel reads each application's APL out of one collector per row.
func newPanel(title string, labels []string, cols []*stats.Collector, apps []string) *Panel {
	p := &Panel{Title: title, Labels: labels, Apps: apps, Cols: cols}
	for _, c := range cols {
		row := make([]float64, len(apps))
		for a := range row {
			row[a] = c.App(a).Mean()
		}
		p.APL = append(p.APL, row)
	}
	return p
}

// paired folds a panel whose rows alternate (alone, co-run) into one row per
// pair.
func (p *Panel) paired(labels []string) *Panel {
	co := &Panel{Title: p.Title, Labels: labels, Apps: p.Apps}
	for i := 0; i < len(p.APL); i += 2 {
		co.Base = append(co.Base, p.APL[i])
		co.APL = append(co.APL, p.APL[i+1])
		co.Cols = append(co.Cols, p.Cols[i+1])
	}
	return co
}

// Axis is the driver of every experiment that sweeps one axis: it runs each
// scheme at each point, all runs in one RunParallel, and returns one panel
// per point, titled with its label, with a row per scheme. A point's own
// Scheme replaces the axis's, so a baseline point runs once; a zero Router
// takes the synthetic one-class configuration.
func Axis(schemes []Scheme, points []Point, dur Durations, seed uint64) []*Panel {
	var rcs []RunConfig
	var labels []string
	for _, pt := range points {
		for _, s := range schemes {
			rc := pt.RunConfig
			if rc.Scheme.Name == "" {
				rc.Scheme = s
			}
			if rc.Router == (router.Config{}) {
				rc.Router = synthCfg()
			}
			rc.Dur, rc.Seed = dur, seed
			rcs = append(rcs, rc)
			labels = append(labels, rc.Scheme.Name)
		}
	}
	cols := RunParallel(rcs)
	panels, n := make([]*Panel, len(points)), len(schemes)
	for i, pt := range points {
		panels[i] = newPanel(pt.Label, labels[i*n:(i+1)*n], cols[i*n:(i+1)*n], appNames("App", len(pt.Apps)))
	}
	return panels
}

// coRunPanel is the co-run comparison: per scheme, pair's two runs — the
// applications alone, then beside the aggressor — all in parallel, folded
// into one row per scheme.
func coRunPanel(title string, schemes []Scheme, apps []string, pair func(i int, s Scheme) (alone, co RunConfig)) *Panel {
	var rcs []RunConfig
	for i, s := range schemes {
		alone, co := pair(i, s)
		rcs = append(rcs, alone, co)
	}
	return newPanel(title, nil, RunParallel(rcs), apps).paired(schemeNames(schemes))
}

func schemeNames(schemes []Scheme) []string {
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	return names
}

// appNames names applications 0..n-1 by number.
func appNames(prefix string, n int) []string {
	names := make([]string, n)
	for a := range names {
		names[a] = fmt.Sprintf("%s%d", prefix, a)
	}
	return names
}

// Reduction returns the APL reduction of row ri for app ai against row 0.
func (p *Panel) Reduction(ri, ai int) float64 {
	return stats.Reduction(p.APL[0][ai], p.APL[ri][ai])
}

// Slowdown returns the APL slowdown of app ai in row ri's co-run against its
// run alone.
func (p *Panel) Slowdown(ri, ai int) float64 {
	return stats.Slowdown(p.Base[ri][ai], p.APL[ri][ai])
}

// AvgReduction returns the mean per-application reduction of row ri.
func (p *Panel) AvgReduction(ri int) float64 { return p.appMean(ri, p.Reduction) }

// AvgSlowdown returns the mean per-application slowdown of row ri.
func (p *Panel) AvgSlowdown(ri int) float64 { return p.appMean(ri, p.Slowdown) }

// appMean averages a per-application ratio of row ri over the applications.
func (p *Panel) appMean(ri int, ratio func(ri, ai int) float64) float64 {
	sum := 0.0
	for ai := range p.Apps {
		sum += ratio(ri, ai)
	}
	return sum / float64(len(p.Apps))
}

// aplRow starts a table row: the leading cells, then row ri's APLs.
func (p *Panel) aplRow(ri int, lead ...string) []string {
	for _, apl := range p.APL[ri] {
		lead = append(lead, f2(apl))
	}
	return lead
}

// ReductionTable renders the one point of an axis: per-application APLs and
// the average reduction against the first row (Figures 12 and 14).
func ReductionTable(title string, _ []Point, ps []*Panel) *Table {
	p := ps[0]
	t := &Table{Title: title, Header: []string{"scheme"}}
	for _, a := range p.Apps {
		t.Header = append(t.Header, a+" APL")
	}
	t.Header = append(t.Header, "avg reduction vs "+p.Labels[0])
	for ri, label := range p.Labels {
		red := "-"
		if ri > 0 {
			red = pct(p.AvgReduction(ri))
		}
		t.AddRow(append(p.aplRow(ri, label), red)...)
	}
	return t
}

// SweepTable renders an axis over the inter-region fraction p: one row per
// (scheme, p), scheme-major (Figures 9 and 10).
func SweepTable(title string, _ []Point, ps []*Panel) *Table {
	t := &Table{Title: title, Header: []string{"scheme", "p"}}
	for _, a := range ps[0].Apps {
		t.Header = append(t.Header, "APL "+a)
	}
	for si := range ps[0].Labels {
		for _, p := range ps {
			t.AddRow(p.aplRow(si, p.Labels[si], p.Title)...)
		}
	}
	return t
}

// SlowdownTable renders a co-run panel: per-application slowdowns and their
// mean under the avg heading. Drivers that report more per row (a
// collective's completion time) append their columns to it.
func (p *Panel) SlowdownTable(avg string) *Table {
	t := &Table{Title: p.Title, Header: append(append([]string{"scheme"}, p.Apps...), avg)}
	for ri, label := range p.Labels {
		row := []string{label}
		for ai := range p.Apps {
			row = append(row, f2(p.Slowdown(ri, ai)))
		}
		t.AddRow(append(row, f2(p.AvgSlowdown(ri)))...)
	}
	return t
}
