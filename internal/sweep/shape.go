package sweep

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// This file is the vocabulary in which the reproduction targets of
// EXPERIMENTS.md are written and the checker that applies them to a result
// store. The targets are *shapes* — who wins, in what order, where the knees
// sit — not absolute numbers, so a guard is a list of predicates over named
// cells of one record's CSV. A claim is a Guard too, whose bound is one of
// the paper's numbers: its room is the signed distance from the paper, and
// it is reported, never gated. Both are data beside each experiment's
// registry entry (package rair); none is named here.

// CSVTable is a parsed experiment CSV: a header row and data rows.
type CSVTable struct {
	Header []string
	Rows   [][]string
}

// ParseCSVTable parses a Table.CSV rendition. A CSV that concatenates
// several tables parses as one table with the extra header rows kept as
// data, so rows may be shorter or longer than the header.
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

// parseCell parses a numeric table cell; "12.5%" style cells return 0.125.
func parseCell(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSuffix(s, "%")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("cell %q is not numeric", s)
	}
	if pct {
		v /= 100
	}
	return v, nil
}

// Sel names cells of a table: the rows whose first cell is Row ("" = every
// row), in column Col ("" = the header's last); Last keeps only the last of
// them (the top of a sweep axis). A predicate over one cell reads the first.
type Sel struct {
	Row, Col string
	Last     bool
}

func (s Sel) String() string {
	row := cmp.Or(s.Row, "*")
	if s.Last {
		row += "[last]"
	}
	return row + ":" + cmp.Or(s.Col, "<last>")
}

// series returns the selected cells top to bottom. A missing column, a row
// too short to have it, a non-numeric cell and an empty selection are errors.
func (s Sel) series(t *CSVTable) ([]float64, error) {
	ci := len(t.Header) - 1
	if s.Col != "" {
		if ci = slices.Index(t.Header, s.Col); ci < 0 {
			return nil, fmt.Errorf("no column %q in header %v", s.Col, t.Header)
		}
	}
	var out []float64
	for _, row := range t.Rows {
		if s.Row != "" && (len(row) == 0 || row[0] != s.Row) {
			continue
		}
		if ci >= len(row) {
			return nil, fmt.Errorf("row %v has no column %d (%q)", row, ci, t.Header[ci])
		}
		v, err := parseCell(row[ci])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s selects no cell", s)
	}
	if s.Last {
		out = out[len(out)-1:]
	}
	return out, nil
}

// Op is a word of the predicate vocabulary.
type Op string

const (
	// Less: A <= K·B − Margin, one cell each (K 0 reads as 1).
	Less Op = "Less"
	// Within: every cell of A lies in [Lo, Hi] (Hi 0 = no upper bound).
	Within Op = "Within"
	// Monotone: A does not fall down the rows by more than the fraction K.
	Monotone Op = "Monotone"
	// Spread: max(A) <= K·min(A).
	Spread Op = "Spread"
	// Knee: the first B at which A exceeds K·A[0] (the last B when none
	// does) lies in [Lo, Hi].
	Knee Op = "Knee"
)

// Positive as a Within.Lo keeps "> 0" exact.
const Positive = math.SmallestNonzeroFloat64

// Pred is one predicate over a table. Every Op also requires A to select at
// least Min cells.
type Pred struct {
	Op                Op
	A, B              Sel
	K, Margin, Lo, Hi float64
	Min               int
}

// String renders p as its table row reads: the word, its cells and the
// parameters that are set.
func (p Pred) String() string {
	s := string(p.Op) + "(" + p.A.String()
	if p.Op == Less || p.Op == Knee {
		s += ", " + p.B.String()
	}
	for i, v := range [...]float64{p.K, p.Margin, p.Lo, p.Hi} {
		if name := [...]string{"K", "Margin", "Lo", "Hi"}[i]; v == Positive {
			s += " " + name + ">0"
		} else if v != 0 {
			s += fmt.Sprintf(" %s=%.4g", name, v)
		}
	}
	return s + ")"
}

// room reports how far p is from failing on t, in the units of its cells:
// negative means it fails.
func (p Pred) room(t *CSVTable) (float64, error) {
	a, err := p.A.series(t)
	if err != nil {
		return 0, err
	}
	if len(a) < p.Min {
		return 0, fmt.Errorf("%s selects %d cells, want at least %d", p.A, len(a), p.Min)
	}
	var b []float64
	if p.Op == Less || p.Op == Knee {
		if b, err = p.B.series(t); err != nil {
			return 0, err
		}
	}
	room := math.Inf(1)
	switch p.Op {
	case Less:
		room = cmp.Or(p.K, 1)*b[0] - p.Margin - a[0]
	case Within:
		for _, v := range a {
			room = math.Min(room, v-p.Lo)
			if p.Hi != 0 {
				room = math.Min(room, p.Hi-v)
			}
		}
	case Monotone:
		for i := 1; i < len(a); i++ {
			room = math.Min(room, a[i]-a[i-1]*(1-p.K))
		}
	case Spread:
		room = p.K*slices.Min(a) - slices.Max(a)
	case Knee:
		if len(b) != len(a) {
			return 0, fmt.Errorf("%s has %d cells but %s has %d", p.A, len(a), p.B, len(b))
		}
		i := slices.IndexFunc(a, func(v float64) bool { return v > p.K*a[0] })
		if i < 0 {
			i = len(b) - 1
		}
		room = math.Min(b[i]-p.Lo, p.Hi-b[i])
	default:
		return 0, fmt.Errorf("unknown predicate %q", p.Op)
	}
	return room, nil
}

// Guard is one shape target: every predicate must hold on every store
// record of the experiment it is registered under.
type Guard struct {
	Name  string // what shape it guards, for reports
	Preds []Pred
}

// check evaluates g on t. slack is the smallest room among its predicates
// and tight the predicate that has it; a predicate that cannot be evaluated
// is an error with no slack (NaN).
func (g Guard) check(t *CSVTable) (slack float64, tight string, err error) {
	slack = math.Inf(1)
	for _, p := range g.Preds {
		room, err := p.room(t)
		if err != nil {
			return math.NaN(), p.String(), err
		}
		if room < slack {
			slack, tight = room, p.String()
		}
	}
	if slack < 0 {
		return slack, tight, fmt.Errorf("%s fails by %.4g", tight, -slack)
	}
	return slack, tight, nil
}

// Finding is the outcome of one guard applied to one record.
type Finding struct {
	Experiment string
	Seed       uint64
	Quick      bool
	Guard      string
	Err        error // nil = passed
	// Slack is the room of the guard's tightest predicate, Tight: negative
	// when it fails, NaN when it could not be evaluated.
	Slack float64
	Tight string
}

// CheckReport aggregates guard findings over a store.
type CheckReport struct {
	Findings []Finding
	// Missing lists the guarded (in Claims, claimed) experiments not stored.
	Missing []string
	// Claims checks the paper's numbers: reported, never gated.
	Claims *CheckReport
}

// Failed counts the findings that did not pass.
func (r *CheckReport) Failed() int {
	n := 0
	for _, f := range r.Findings {
		if f.Err != nil {
			n++
		}
	}
	return n
}

// String renders the report: failures first, then each passing guard with
// its slack, then — for reporting only — how the slack of every guard the
// store holds at three or more seeds varies across them. The claims follow
// in the same form under their own header.
func (r *CheckReport) String() string {
	var b strings.Builder
	r.write(&b, false)
	if c := r.Claims; c != nil && len(c.Findings)+len(c.Missing) > 0 {
		b.WriteString("\n\npaper claims, reported and never gated (room: the signed distance from the paper's number)\n")
		c.write(&b, true)
	}
	return b.String()
}

// write renders r's findings, failures first, one line per span of three or
// more seeds, which a guard marks thin when its smallest slack is below the
// range — a margin narrower than the seed noise it is meant to ride out —
// and the totals. Claims miss or hold, and have room instead of slack.
func (r *CheckReport) write(b *strings.Builder, claims bool) {
	kind, fail, pass, room, passed, failed := "guard", "FAIL", "ok  ", "slack", "passed", "failed"
	if claims {
		kind, fail, pass, room, passed, failed = "claim", "miss", "held", "room", "held", "missed"
	}
	for _, f := range r.Findings {
		if f.Err != nil {
			fmt.Fprintf(b, "%s %-12s seed=%-3d %s: %v\n", fail, f.Experiment, f.Seed, f.Guard, f.Err)
		}
	}
	for _, f := range r.Findings {
		if f.Err == nil {
			fmt.Fprintf(b, "%s %-12s seed=%-3d %s [%s %.3g: %s]\n", pass, f.Experiment, f.Seed, f.Guard, room, f.Slack, f.Tight)
		}
	}
	for _, s := range spans(r.Findings) {
		thin := ""
		if s.lo < s.hi-s.lo && !claims {
			thin = " thin"
		}
		if s.n >= 3 {
			fmt.Fprintf(b, "seeds %-12s n=%-5d %s [%s min %.3g max %.3g spread %.3g%s]\n",
				s.Experiment, s.n, s.Guard, room, s.lo, s.hi, s.hi-s.lo, thin)
		}
	}
	fmt.Fprintf(b, "%d %s checks: %d %s, %d %s", len(r.Findings), kind, len(r.Findings)-r.Failed(), passed, r.Failed(), failed)
	if len(r.Missing) > 0 {
		fmt.Fprintf(b, "; %sed experiments missing from store: %s", kind, strings.Join(r.Missing, ", "))
	}
}

// span is one guard's findings over the seeds of one experiment at one
// duration setting: the first finding, how many there are and how many
// failed, and the range of the slack of the n that could be evaluated.
type span struct {
	Finding
	seeds, failed, n int
	lo, hi           float64
}

// spans groups findings by experiment, durations and guard, in the order
// each group first appears.
func spans(fs []Finding) []span {
	var out []span
	for _, f := range fs {
		i := slices.IndexFunc(out, func(s span) bool {
			return s.Experiment == f.Experiment && s.Quick == f.Quick && s.Guard == f.Guard
		})
		if i < 0 {
			out, i = append(out, span{Finding: f, lo: math.Inf(1), hi: math.Inf(-1)}), len(out)
		}
		s := &out[i]
		s.seeds++
		if f.Err != nil {
			s.failed++
		}
		if !math.IsNaN(f.Slack) {
			s.lo, s.hi, s.n = math.Min(s.lo, f.Slack), math.Max(s.hi, f.Slack), s.n+1
		}
	}
	return out
}

// CheckStore applies guards and claims, each keyed by experiment name, to
// every matching record. The claims' findings are the report's Claims.
func CheckStore(recs []Record, guards, claims map[string][]Guard) *CheckReport {
	rep, present := &CheckReport{Claims: &CheckReport{}}, make(map[string]bool)
	for _, rec := range recs {
		present[rec.Experiment] = true
		tbl, perr := ParseCSVTable(rec.CSV)
		apply := func(fs []Finding, gs []Guard) []Finding {
			for _, g := range gs {
				f := Finding{Experiment: rec.Experiment, Seed: rec.Seed, Quick: rec.Quick, Guard: g.Name, Err: perr, Slack: math.NaN()}
				if perr == nil {
					f.Slack, f.Tight, f.Err = g.check(tbl)
				}
				fs = append(fs, f)
			}
			return fs
		}
		rep.Findings = apply(rep.Findings, guards[rec.Experiment])
		rep.Claims.Findings = apply(rep.Claims.Findings, claims[rec.Experiment])
	}
	for exp := range guards {
		if !present[exp] {
			rep.Missing = append(rep.Missing, exp)
		}
	}
	for exp := range claims {
		if !present[exp] {
			rep.Claims.Missing = append(rep.Claims.Missing, exp)
		}
	}
	slices.Sort(rep.Missing)
	slices.Sort(rep.Claims.Missing)
	return rep
}
