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
// cells of one record's CSV. The guards themselves are data beside each
// experiment's registry entry (package rair); none is named here.

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
	// Unchecked lists experiments present in the store with no guards.
	Unchecked []string
	// Missing lists guarded experiments absent from the store.
	Missing []string
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
// store holds at three or more seeds varies across them.
func (r *CheckReport) String() string {
	var b strings.Builder
	for _, f := range r.Findings {
		if f.Err != nil {
			fmt.Fprintf(&b, "FAIL %-12s seed=%-3d %s: %v\n", f.Experiment, f.Seed, f.Guard, f.Err)
		}
	}
	for _, f := range r.Findings {
		if f.Err == nil {
			fmt.Fprintf(&b, "ok   %-12s seed=%-3d %s [slack %.3g: %s]\n", f.Experiment, f.Seed, f.Guard, f.Slack, f.Tight)
		}
	}
	r.writeSeedSpread(&b)
	fmt.Fprintf(&b, "%d guard checks: %d passed, %d failed", len(r.Findings), len(r.Findings)-r.Failed(), r.Failed())
	if len(r.Missing) > 0 {
		fmt.Fprintf(&b, "; guarded experiments missing from store: %s", strings.Join(r.Missing, ", "))
	}
	if len(r.Unchecked) > 0 {
		fmt.Fprintf(&b, "; unguarded: %s", strings.Join(r.Unchecked, ", "))
	}
	return b.String()
}

// writeSeedSpread adds one line per guard evaluated at three or more seeds
// of one experiment at the same durations: the slack's range, marked thin
// when the smallest slack is below that range — a margin narrower than the
// seed noise it is meant to ride out.
func (r *CheckReport) writeSeedSpread(b *strings.Builder) {
	same := func(f, g Finding) bool {
		return f.Experiment == g.Experiment && f.Quick == g.Quick && f.Guard == g.Guard
	}
	for i, f := range r.Findings {
		if slices.ContainsFunc(r.Findings[:i], func(g Finding) bool { return same(f, g) }) {
			continue
		}
		lo, hi, n := math.Inf(1), math.Inf(-1), 0
		for _, g := range r.Findings[i:] {
			if same(f, g) && !math.IsNaN(g.Slack) {
				lo, hi, n = math.Min(lo, g.Slack), math.Max(hi, g.Slack), n+1
			}
		}
		thin := ""
		if lo < hi-lo {
			thin = " thin"
		}
		if n >= 3 {
			fmt.Fprintf(b, "seeds %-12s n=%-5d %s [slack min %.3g max %.3g spread %.3g%s]\n",
				f.Experiment, n, f.Guard, lo, hi, hi-lo, thin)
		}
	}
}

// CheckStore applies guards, keyed by experiment name, to every matching
// record.
func CheckStore(recs []Record, guards map[string][]Guard) *CheckReport {
	rep := &CheckReport{}
	present := make(map[string]bool)
	for _, rec := range recs {
		present[rec.Experiment] = true
		tbl, perr := ParseCSVTable(rec.CSV)
		for _, g := range guards[rec.Experiment] {
			f := Finding{Experiment: rec.Experiment, Seed: rec.Seed, Quick: rec.Quick, Guard: g.Name, Err: perr, Slack: math.NaN()}
			if perr == nil {
				f.Slack, f.Tight, f.Err = g.check(tbl)
			}
			rep.Findings = append(rep.Findings, f)
		}
	}
	for exp := range guards {
		if !present[exp] {
			rep.Missing = append(rep.Missing, exp)
		}
	}
	for exp := range present {
		if len(guards[exp]) == 0 {
			rep.Unchecked = append(rep.Unchecked, exp)
		}
	}
	slices.Sort(rep.Missing)
	slices.Sort(rep.Unchecked)
	return rep
}
