package sweep

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// This file encodes the reproduction targets of EXPERIMENTS.md as
// executable shape guards over a result store. The targets are *shapes* —
// who wins, in what order, where the knees sit — not absolute numbers, so
// every guard compares values within one record with calibrated tolerances
// and passes at both quick and paper durations (calibrated against seed 1;
// see EXPERIMENTS.md for the underlying measurements).

// CSVTable is a parsed experiment CSV: a header row and data rows.
type CSVTable struct {
	Header []string
	Rows   [][]string
}

// ParseCSVTable parses a Table.CSV rendition. Experiments that concatenate
// several tables (e.g. matrix) parse as one table with the extra header
// rows kept as data; guards for those index by row label instead.
func ParseCSVTable(s string) (*CSVTable, error) {
	r := csv.NewReader(strings.NewReader(s))
	r.FieldsPerRecord = -1
	rows, err := r.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("sweep: parsing result CSV: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("sweep: empty result CSV")
	}
	return &CSVTable{Header: rows[0], Rows: rows[1:]}, nil
}

// Col returns the index of a header column, or an error naming the header.
func (t *CSVTable) Col(name string) (int, error) {
	for i, h := range t.Header {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q in header %v", name, t.Header)
}

// Row returns the first row whose first cell equals label.
func (t *CSVTable) Row(label string) ([]string, error) {
	for _, r := range t.Rows {
		if len(r) > 0 && r[0] == label {
			return r, nil
		}
	}
	return nil, fmt.Errorf("no row labeled %q", label)
}

// Value returns the numeric cell at (row label, column name). Percentage
// cells ("+8.2%", "100%") parse as fractions; "-" is an error.
func (t *CSVTable) Value(rowLabel, colName string) (float64, error) {
	ci, err := t.Col(colName)
	if err != nil {
		return 0, err
	}
	row, err := t.Row(rowLabel)
	if err != nil {
		return 0, err
	}
	if ci >= len(row) {
		return 0, fmt.Errorf("row %q has no column %d (%q)", rowLabel, ci, colName)
	}
	return parseCell(row[ci])
}

// parseCell parses a numeric table cell; "12.5%" style cells return 0.125.
func parseCell(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("cell %q is not numeric", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// Guard is one shape check applied to every store record of its experiment.
type Guard struct {
	Experiment string
	Name       string // what shape it guards, for reports
	Check      func(t *CSVTable) error
}

// Finding is the outcome of one guard applied to one record.
type Finding struct {
	Experiment string
	Seed       uint64
	Guard      string
	Err        error // nil = passed
}

// CheckReport aggregates guard findings over a store.
type CheckReport struct {
	Findings []Finding
	// Unchecked lists experiments present in the store with no guards.
	Unchecked []string
	// Missing lists guarded experiments absent from the store.
	Missing []string
}

// Passed and Failed count findings.
func (r *CheckReport) Passed() int { return len(r.Findings) - r.Failed() }
func (r *CheckReport) Failed() int {
	n := 0
	for _, f := range r.Findings {
		if f.Err != nil {
			n++
		}
	}
	return n
}

// OK reports whether at least one guard ran and none failed.
func (r *CheckReport) OK() bool { return len(r.Findings) > 0 && r.Failed() == 0 }

// String renders the report, failures first.
func (r *CheckReport) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		if f.Err != nil {
			fmt.Fprintf(&b, "FAIL %-12s seed=%-3d %s: %v\n", f.Experiment, f.Seed, f.Guard, f.Err)
		}
	}
	for _, f := range r.Findings {
		if f.Err == nil {
			fmt.Fprintf(&b, "ok   %-12s seed=%-3d %s\n", f.Experiment, f.Seed, f.Guard)
		}
	}
	fmt.Fprintf(&b, "%d guard checks: %d passed, %d failed", len(r.Findings), r.Passed(), r.Failed())
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, "; guarded experiments missing from store: %s", strings.Join(r.Missing, ", "))
	}
	if len(r.Unchecked) > 0 {
		fmt.Fprintf(&b, "; unguarded: %s", strings.Join(r.Unchecked, ", "))
	}
	return b.String()
}

// CheckStore applies every registered guard to every matching record.
func CheckStore(recs []Record) *CheckReport {
	rep := &CheckReport{}
	byExp := make(map[string][]Guard)
	for _, g := range Guards() {
		byExp[g.Experiment] = append(byExp[g.Experiment], g)
	}
	present := make(map[string]bool)
	for _, rec := range recs {
		present[rec.Experiment] = true
		guards := byExp[rec.Experiment]
		if len(guards) == 0 {
			continue
		}
		tbl, perr := ParseCSVTable(rec.CSV)
		for _, g := range guards {
			err := perr
			if err == nil {
				err = g.Check(tbl)
			}
			rep.Findings = append(rep.Findings, Finding{
				Experiment: rec.Experiment, Seed: rec.Seed, Guard: g.Name, Err: err,
			})
		}
	}
	for exp := range byExp {
		if !present[exp] {
			rep.Missing = append(rep.Missing, exp)
		}
	}
	for exp := range present {
		if len(byExp[exp]) == 0 {
			rep.Unchecked = append(rep.Unchecked, exp)
		}
	}
	sort.Strings(rep.Missing)
	sort.Strings(rep.Unchecked)
	return rep
}

// nondecreasing errors if any value drops below its predecessor by more
// than the relative slack.
func nondecreasing(vals []float64, slack float64) error {
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1]*(1-slack) {
			return fmt.Errorf("drops at index %d: %.3f < %.3f (-%.0f%% slack)", i, vals[i], vals[i-1], slack*100)
		}
	}
	return nil
}

// Guards returns the shape-guard registry: the EXPERIMENTS.md reproduction
// targets as code. Tolerances are calibrated so seed-1 quick and paper
// stores both pass with margin; a regression in any reproduced ordering
// fails the corresponding guard.
func Guards() []Guard {
	return []Guard{
		{
			Experiment: "fig9",
			Name:       "APL grows with p; MSP at VA+SA beats VA-only beats RO_RR at p=100%",
			Check: func(t *CSVTable) error {
				// App 0's latency must rise with the inter-region fraction
				// under the baseline (the interference being measured).
				var rr []float64
				for _, row := range t.Rows {
					if row[0] == "RO_RR" {
						v, err := parseCell(row[2])
						if err != nil {
							return err
						}
						rr = append(rr, v)
					}
				}
				if len(rr) < 2 {
					return fmt.Errorf("fewer than 2 RO_RR sweep points")
				}
				if rr[len(rr)-1] <= rr[0]*1.05 {
					return fmt.Errorf("RO_RR App0 APL does not grow with p: %.2f at p=0 vs %.2f at p=max", rr[0], rr[len(rr)-1])
				}
				// At the top of the sweep the scheme ordering is the
				// figure's claim: full MSP < VA-only < baseline.
				top := func(scheme string) (float64, error) {
					var v float64
					found := false
					for _, row := range t.Rows {
						if row[0] == scheme {
							var err error
							if v, err = parseCell(row[2]); err != nil {
								return 0, err
							}
							found = true
						}
					}
					if !found {
						return 0, fmt.Errorf("no rows for scheme %q", scheme)
					}
					return v, nil // last sweep point (p=100%)
				}
				vRR, err := top("RO_RR")
				if err != nil {
					return err
				}
				vVA, err := top("RAIR_VA")
				if err != nil {
					return err
				}
				vBoth, err := top("RAIR_VA+SA")
				if err != nil {
					return err
				}
				if vBoth > vRR*0.97 {
					return fmt.Errorf("RAIR_VA+SA does not improve on RO_RR at p=100%%: %.2f vs %.2f", vBoth, vRR)
				}
				if vBoth > vVA*0.99 {
					return fmt.Errorf("MSP at VA+SA not better than VA-only at p=100%%: %.2f vs %.2f", vBoth, vVA)
				}
				return nil
			},
		},
		{
			Experiment: "fig12a",
			Name:       "low apps sending in: ForeignH >> NativeH and DPA tracks the winner",
			Check: func(t *CSVTable) error {
				col := "avg reduction vs RO_RR"
				nh, err := t.Value("RAIR_NativeH", col)
				if err != nil {
					return err
				}
				fh, err := t.Value("RAIR_ForeignH", col)
				if err != nil {
					return err
				}
				dpa, err := t.Value("RAIR_DPA", col)
				if err != nil {
					return err
				}
				if fh < nh+0.10 {
					return fmt.Errorf("ForeignH (%.1f%%) does not clearly beat NativeH (%.1f%%)", fh*100, nh*100)
				}
				if dpa < fh-0.03 {
					return fmt.Errorf("DPA (%.1f%%) does not track the ForeignH winner (%.1f%%)", dpa*100, fh*100)
				}
				if dpa <= 0 {
					return fmt.Errorf("DPA reduction not positive: %.1f%%", dpa*100)
				}
				return nil
			},
		},
		{
			Experiment: "fig12b",
			Name:       "hot app sending out: NativeH beats ForeignH (so adaptation is necessary)",
			Check: func(t *CSVTable) error {
				col := "avg reduction vs RO_RR"
				nh, err := t.Value("RAIR_NativeH", col)
				if err != nil {
					return err
				}
				fh, err := t.Value("RAIR_ForeignH", col)
				if err != nil {
					return err
				}
				dpa, err := t.Value("RAIR_DPA", col)
				if err != nil {
					return err
				}
				if nh < fh+0.005 {
					return fmt.Errorf("NativeH (%.1f%%) does not beat ForeignH (%.1f%%): static-mode ordering lost", nh*100, fh*100)
				}
				if dpa < fh-0.005 {
					return fmt.Errorf("DPA (%.1f%%) fell below both static modes (ForeignH %.1f%%)", dpa*100, fh*100)
				}
				return nil
			},
		},
		{
			Experiment: "fig14",
			Name:       "six-app RNoC: no scheme harmful, region-oblivious rank beats DBAR",
			Check: func(t *CSVTable) error {
				col := "avg reduction vs RO_RR"
				dbar, err := t.Value("RA_DBAR", col)
				if err != nil {
					return err
				}
				rank, err := t.Value("RO_Rank", col)
				if err != nil {
					return err
				}
				rair, err := t.Value("RA_RAIR", col)
				if err != nil {
					return err
				}
				for n, v := range map[string]float64{"RA_DBAR": dbar, "RO_Rank": rank, "RA_RAIR": rair} {
					if v < -0.02 {
						return fmt.Errorf("%s harmful on average: %.1f%%", n, v*100)
					}
				}
				if rank < dbar+0.005 {
					return fmt.Errorf("RO_Rank (%.1f%%) does not beat RA_DBAR (%.1f%%)", rank*100, dbar*100)
				}
				if rair < -0.01 {
					return fmt.Errorf("RA_RAIR not >= break-even: %.1f%%", rair*100)
				}
				return nil
			},
		},
		{
			Experiment: "fig17",
			Name:       "adversarial slowdown ordering RO_RR > RA_DBAR > RO_Rank >= RA_RAIR",
			Check: func(t *CSVTable) error {
				avg := func(scheme string) (float64, error) { return t.Value(scheme, "average") }
				rr, err := avg("RO_RR")
				if err != nil {
					return err
				}
				dbar, err := avg("RA_DBAR")
				if err != nil {
					return err
				}
				rank, err := avg("RO_Rank")
				if err != nil {
					return err
				}
				rair, err := avg("RA_RAIR")
				if err != nil {
					return err
				}
				if rr < dbar*1.05 {
					return fmt.Errorf("RO_RR (%.2f) not clearly worst vs RA_DBAR (%.2f)", rr, dbar)
				}
				if dbar < rank*1.05 {
					return fmt.Errorf("RA_DBAR (%.2f) not worse than RO_Rank (%.2f)", dbar, rank)
				}
				if rair > rank*1.02 {
					return fmt.Errorf("RA_RAIR (%.2f) not best (RO_Rank %.2f)", rair, rank)
				}
				if rr < rair*1.5 {
					return fmt.Errorf("protection margin lost: RO_RR %.2f vs RA_RAIR %.2f (< 1.5x)", rr, rair)
				}
				return nil
			},
		},
		{
			Experiment: "curve",
			Name:       "latency-load curve monotone with a knee near achieved saturation",
			Check: func(t *CSVTable) error {
				var fracs, apls, tputs []float64
				for _, row := range t.Rows {
					if len(row) < 3 {
						return fmt.Errorf("curve row too short: %v", row)
					}
					f, err1 := parseCell(row[0])
					a, err2 := parseCell(row[1])
					tp, err3 := parseCell(row[2])
					if err1 != nil || err2 != nil || err3 != nil {
						return fmt.Errorf("non-numeric curve row %v", row)
					}
					fracs, apls, tputs = append(fracs, f), append(apls, a), append(tputs, tp)
				}
				if len(apls) < 4 {
					return fmt.Errorf("curve has fewer than 4 points")
				}
				if err := nondecreasing(apls, 0.02); err != nil {
					return fmt.Errorf("APL not monotone nondecreasing in load: %v", err)
				}
				if err := nondecreasing(tputs, 0.02); err != nil {
					return fmt.Errorf("throughput not monotone nondecreasing in load: %v", err)
				}
				if apls[len(apls)-1] < 2*apls[0] {
					return fmt.Errorf("no saturation divergence: APL %.1f at %.2f vs %.1f at %.2f",
						apls[0], fracs[0], apls[len(apls)-1], fracs[len(fracs)-1])
				}
				// Knee location: the first point where APL exceeds 1.5x the
				// low-load APL must sit near achieved saturation (the loads
				// are expressed as fractions of it).
				knee := fracs[len(fracs)-1]
				for i, a := range apls {
					if a > 1.5*apls[0] {
						knee = fracs[i]
						break
					}
				}
				if knee < 0.8 || knee > 1.15 {
					return fmt.Errorf("saturation knee at load fraction %.2f, outside [0.80, 1.15]", knee)
				}
				return nil
			},
		},
		{
			Experiment: "coll-synth",
			Name:       "RAIR protects victims from the collective: RA_RAIR slowdown below RO_RR, interference present",
			Check: func(t *CSVTable) error {
				col := "avg slowdown"
				rr, err := t.Value("RO_RR", col)
				if err != nil {
					return err
				}
				rair, err := t.Value("RA_RAIR", col)
				if err != nil {
					return err
				}
				if rr < 1.04 {
					return fmt.Errorf("no interference to protect against: RO_RR victim slowdown %.3f < 1.04", rr)
				}
				if rair > rr-0.02 {
					return fmt.Errorf("RA_RAIR (%.3f) does not reduce victim slowdown vs RO_RR (%.3f) by >= 0.02", rair, rr)
				}
				if rair < 0.95 {
					return fmt.Errorf("RA_RAIR victim slowdown %.3f implausibly below 0.95", rair)
				}
				return nil
			},
		},
		{
			Experiment: "coll-synth",
			Name:       "bounded collective cost: every scheme completes rounds, RA_RAIR CCT within 1.5x of RO_RR",
			Check: func(t *CSVTable) error {
				var rrCCT, rairCCT float64
				for _, scheme := range []string{"RO_RR", "RA_DBAR", "RO_Rank", "RA_RAIR"} {
					rounds, err := t.Value(scheme, "rounds")
					if err != nil {
						return err
					}
					if rounds < 1 {
						return fmt.Errorf("%s completed no collective rounds", scheme)
					}
					cct, err := t.Value(scheme, "cct")
					if err != nil {
						return err
					}
					if cct <= 0 {
						return fmt.Errorf("%s has nonpositive CCT %.1f", scheme, cct)
					}
					switch scheme {
					case "RO_RR":
						rrCCT = cct
					case "RA_RAIR":
						rairCCT = cct
					}
				}
				if rairCCT > 1.5*rrCCT {
					return fmt.Errorf("protection overpriced: RA_RAIR CCT %.1f > 1.5x RO_RR CCT %.1f", rairCCT, rrCCT)
				}
				return nil
			},
		},
		{
			Experiment: "coll-allreduce",
			Name:       "PARSEC co-run sane: all schemes complete rounds, victim slowdowns bounded",
			Check: func(t *CSVTable) error {
				for _, scheme := range []string{"RO_RR", "RA_DBAR", "RO_Rank", "RA_RAIR"} {
					rounds, err := t.Value(scheme, "rounds")
					if err != nil {
						return err
					}
					if rounds < 1 {
						return fmt.Errorf("%s completed no collective rounds", scheme)
					}
					avg, err := t.Value(scheme, "avg slowdown")
					if err != nil {
						return err
					}
					if avg < 0.90 || avg > 1.50 {
						return fmt.Errorf("%s victim slowdown %.3f outside [0.90, 1.50]", scheme, avg)
					}
				}
				return nil
			},
		},
		{
			Experiment: "chiplet-synth",
			Name:       "boundary gating works: RA_RAIR victim slowdown below RO_RR, interference present",
			Check: func(t *CSVTable) error {
				// Calibrated against seeds 1-3 at quick (RO_RR 1.025-1.046,
				// RA_RAIR 1.017-1.038, margin >= 0.006) and paper durations
				// (RO_RR 1.037, RA_RAIR 1.031): the foreign flood through
				// the victim gateway must measurably slow the victim under
				// round-robin, and RAIR's boundary routers — flipped
				// native-high by the DPA at the gateway — must contain it.
				rr, err := t.Value("RO_RR", "slowdown")
				if err != nil {
					return err
				}
				rair, err := t.Value("RA_RAIR", "slowdown")
				if err != nil {
					return err
				}
				if rr < 1.015 {
					return fmt.Errorf("no boundary interference to gate: RO_RR victim slowdown %.3f < 1.015", rr)
				}
				if rair > rr-0.003 {
					return fmt.Errorf("RA_RAIR (%.3f) does not reduce victim slowdown vs RO_RR (%.3f) by >= 0.003", rair, rr)
				}
				if rair < 0.95 {
					return fmt.Errorf("RA_RAIR victim slowdown %.3f implausibly below 0.95", rair)
				}
				return nil
			},
		},
		{
			Experiment: "chiplet-synth",
			Name:       "chiplet co-run sane: every scheme's victim slowdown bounded, bases agree",
			Check: func(t *CSVTable) error {
				// The base column is the victim running alone: the crossbar
				// never carries a flit, so scheme choice must barely move it
				// (arbitration differences only reshuffle the victim's own
				// packets). A base spread beyond 2% means the co-run column
				// is comparing different baselines.
				var lo, hi float64
				for i, scheme := range []string{"RO_RR", "RA_DBAR", "RO_Rank", "RA_RAIR"} {
					sd, err := t.Value(scheme, "slowdown")
					if err != nil {
						return err
					}
					if sd < 0.95 || sd > 1.5 {
						return fmt.Errorf("%s victim slowdown %.3f outside [0.95, 1.5]", scheme, sd)
					}
					base, err := t.Value(scheme, "base apl")
					if err != nil {
						return err
					}
					if base <= 0 {
						return fmt.Errorf("%s nonpositive base APL %.2f", scheme, base)
					}
					if i == 0 {
						lo, hi = base, base
					} else {
						if base < lo {
							lo = base
						}
						if base > hi {
							hi = base
						}
					}
				}
				if hi > lo*1.02 {
					return fmt.Errorf("victim-alone baselines diverge across schemes: %.2f vs %.2f", lo, hi)
				}
				return nil
			},
		},
		{
			Experiment: "mesh64-scale",
			Name:       "RAIR's benefit survives big meshes: positive reduction at every size",
			Check: func(t *CSVTable) error {
				if len(t.Rows) < 2 {
					return fmt.Errorf("fewer than 2 mesh sizes")
				}
				for _, row := range t.Rows {
					red, err := parseCell(row[len(row)-1])
					if err != nil {
						return err
					}
					if red <= 0 {
						return fmt.Errorf("%s: RAIR does not reduce APL (avg reduction %.1f%%)", row[0], red)
					}
				}
				return nil
			},
		},
		{
			Experiment: "batch",
			Name:       "STC slowdown grows with batching interval (Section III.A weakness)",
			Check: func(t *CSVTable) error {
				var avgs []float64
				for _, row := range t.Rows {
					v, err := parseCell(row[len(row)-1])
					if err != nil {
						return err
					}
					avgs = append(avgs, v)
				}
				if len(avgs) < 3 {
					return fmt.Errorf("fewer than 3 batching intervals")
				}
				if err := nondecreasing(avgs, 0.05); err != nil {
					return fmt.Errorf("slowdown not nondecreasing in interval: %v", err)
				}
				if avgs[len(avgs)-1] < 1.5*avgs[0] {
					return fmt.Errorf("coarse batching not clearly worse: %.2f vs %.2f", avgs[len(avgs)-1], avgs[0])
				}
				return nil
			},
		},
	}
}
