package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Moved is one numeric cell whose value differs between two stores.
type Moved struct {
	Experiment string
	Seed       uint64
	Line       int    // the CSV line, 1 for the header
	Row        string // the line's first cell
	Col        string // the header's name for the column
	A, B       float64
	Delta      float64 // |relative delta|
}

// DiffReport is the comparison of two result stores: for every job key
// present in both, the numeric cells of the CSV payloads are compared
// pairwise, and each cell that moved is listed.
type DiffReport struct {
	Moved      []Moved  // in store A's record order, then line and column order
	Cells      int      // numeric cell pairs compared
	Mismatched []string // keys whose tables differ in shape, labels or non-numeric cells
	OnlyA      []string // keys only in store A
	OnlyB      []string // keys only in store B
	Common     int      // keys in both stores
}

// MaxDelta returns the largest |relative delta| of any moved cell.
func (r *DiffReport) MaxDelta() float64 {
	m := 0.0
	for _, c := range r.Moved {
		m = math.Max(m, c.Delta)
	}
	return m
}

// Within reports whether the stores agree within tol everywhere: the same
// keys, no structural mismatches and every numeric delta <= tol.
func (r *DiffReport) Within(tol float64) bool {
	return len(r.Mismatched)+len(r.OnlyA)+len(r.OnlyB) == 0 && r.MaxDelta() <= tol
}

// String renders one line per moved cell, then the totals.
func (r *DiffReport) String() string {
	var b strings.Builder
	for _, c := range r.Moved {
		fmt.Fprintf(&b, "%-14s seed=%-3d line %-3d %-16s %-24s %12.6g -> %-12.6g |d| %.4f%%\n",
			c.Experiment, c.Seed, c.Line, c.Row, c.Col, c.A, c.B, 100*c.Delta)
	}
	fmt.Fprintf(&b, "%d common keys, %d numeric cells compared, %d moved, max |delta| %.4f%%",
		r.Common, r.Cells, len(r.Moved), 100*r.MaxDelta())
	if len(r.OnlyA) > 0 || len(r.OnlyB) > 0 {
		fmt.Fprintf(&b, "; %d keys only in A, %d only in B", len(r.OnlyA), len(r.OnlyB))
	}
	if len(r.Mismatched) > 0 {
		fmt.Fprintf(&b, "; %d structural mismatches: %s", len(r.Mismatched), strings.Join(r.Mismatched, ", "))
	}
	return b.String()
}

// DiffStores compares two stores key by key.
func DiffStores(a, b []Record) *DiffReport {
	rep := &DiffReport{}
	byKeyB := make(map[string]*Record, len(b))
	for i := range b {
		byKeyB[b[i].Key] = &b[i]
	}
	seenA := make(map[string]bool, len(a))
	for i := range a {
		ra := &a[i]
		seenA[ra.Key] = true
		rb, ok := byKeyB[ra.Key]
		if !ok {
			rep.OnlyA = append(rep.OnlyA, ra.Key)
			continue
		}
		rep.Common++
		if err := diffRecord(ra, rb, rep); err != nil {
			rep.Mismatched = append(rep.Mismatched, fmt.Sprintf("%s (%s seed=%d): %v", ra.Key, ra.Experiment, ra.Seed, err))
		}
	}
	for i := range b {
		if !seenA[b[i].Key] {
			rep.OnlyB = append(rep.OnlyB, b[i].Key)
		}
	}
	sort.Strings(rep.OnlyA)
	sort.Strings(rep.OnlyB)
	return rep
}

// diffRecord compares one record pair cell by cell. Cells that parse as
// numbers in both tables are counted and, when they differ, listed as moved;
// cells that are numeric in exactly one table, or differing non-numeric
// cells, are a structural mismatch.
func diffRecord(a, b *Record, rep *DiffReport) error {
	ta, err := ParseCSVTable(a.CSV)
	if err != nil {
		return fmt.Errorf("store A: %w", err)
	}
	tb, err := ParseCSVTable(b.CSV)
	if err != nil {
		return fmt.Errorf("store B: %w", err)
	}
	if len(ta.Rows) != len(tb.Rows) {
		return fmt.Errorf("row count %d vs %d", len(ta.Rows), len(tb.Rows))
	}
	rows := append([][]string{ta.Header}, ta.Rows...)
	rowsB := append([][]string{tb.Header}, tb.Rows...)
	for ri := range rows {
		if len(rows[ri]) != len(rowsB[ri]) {
			return fmt.Errorf("row %d width %d vs %d", ri, len(rows[ri]), len(rowsB[ri]))
		}
		for ci := range rows[ri] {
			va, ea := parseCell(rows[ri][ci])
			vb, eb := parseCell(rowsB[ri][ci])
			switch {
			case ea == nil && eb == nil:
				rep.Cells++
				if va != vb {
					m := Moved{Experiment: a.Experiment, Seed: a.Seed, Line: ri + 1, Row: rows[ri][0], Col: fmt.Sprint(ci), A: va, B: vb}
					if ci < len(ta.Header) {
						m.Col = ta.Header[ci]
					}
					m.Delta = math.Abs(va-vb) / math.Max(math.Abs(va), math.Abs(vb))
					rep.Moved = append(rep.Moved, m)
				}
			case ea == nil || eb == nil:
				return fmt.Errorf("row %d col %d numeric in one store only (%q vs %q)", ri, ci, rows[ri][ci], rowsB[ri][ci])
			default:
				if rows[ri][ci] != rowsB[ri][ci] {
					return fmt.Errorf("row %d col %d label differs (%q vs %q)", ri, ci, rows[ri][ci], rowsB[ri][ci])
				}
			}
		}
	}
	return nil
}
