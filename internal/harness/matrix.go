package harness

import (
	"fmt"
	"slices"
)

// InterferenceMatrix quantifies pairwise interference in the
// six-application scenario by leave-one-out runs: entry (victim, culprit)
// is the victim's APL slowdown attributable to the culprit's presence
// (APL with everyone ÷ APL with the culprit removed). The diagonal is
// empty. This is the quantity interference-reduction exists to manage;
// comparing the matrix under RO_RR and RA_RAIR shows where RAIR removes
// coupling.
type InterferenceMatrix struct {
	Scheme string
	Apps   []int
	// Slowdown[victim][culprit]; 0 on the diagonal.
	Slowdown [][]float64
}

// Table renders the matrix.
func (m *InterferenceMatrix) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Pairwise interference under %s (victim rows, culprit columns; APL slowdown)", m.Scheme),
		Header: []string{"victim \\ culprit"},
	}
	for _, a := range m.Apps {
		t.Header = append(t.Header, fmt.Sprintf("app%d", a))
	}
	for vi, v := range m.Apps {
		row := []string{fmt.Sprintf("app%d", v)}
		for ci := range m.Apps {
			if vi == ci {
				row = append(row, "-")
				continue
			}
			row = append(row, f2(m.Slowdown[vi][ci]))
		}
		t.AddRow(row...)
	}
	return t
}

// MeasureInterference builds the leave-one-out interference matrix of the
// six-application scenario under the named scheme.
func MeasureInterference(schemeName string, dur Durations, seed uint64) (*InterferenceMatrix, error) {
	s, err := SchemeByName(schemeName)
	if err != nil {
		return nil, err
	}
	regs, apps := Fig14Scenario("UR")
	n := len(apps)

	// Full run plus one run per removed culprit, all in parallel.
	rcs := []RunConfig{synthRun(regs, apps, s, dur, seed)}
	for culprit := range apps {
		reduced := slices.Delete(slices.Clone(apps), culprit, culprit+1)
		rcs = append(rcs, synthRun(regs, reduced, s, dur, seed))
	}
	runs := runPanel("", nil, rcs, appNames("app", n))
	// As a co-run panel, row ci is everyone beside culprit ci (the full run)
	// against everyone without it.
	co := &Panel{Apps: runs.Apps, Base: runs.APL[1:]}
	for range apps {
		co.APL = append(co.APL, runs.APL[0])
	}

	m := &InterferenceMatrix{Scheme: s.Name, Slowdown: make([][]float64, n)}
	for vi := range apps {
		m.Apps = append(m.Apps, apps[vi].App)
		m.Slowdown[vi] = make([]float64, n)
		for ci := range apps {
			if vi != ci {
				m.Slowdown[vi][ci] = co.Slowdown(ci, vi)
			}
		}
	}
	return m, nil
}
