package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rair/internal/stats"
)

// DiffReport is the statistical comparison of two result stores: for every
// job key present in both, the numeric cells of the CSV payloads are
// compared pairwise and the relative deltas accumulated per experiment.
type DiffReport struct {
	// Experiments maps experiment name -> distribution of |relative delta|
	// over comparable numeric cells.
	Experiments map[string]*stats.Dist
	// Cells counts comparable numeric cell pairs; Mismatched counts keys
	// whose tables differ structurally (shape, labels, non-numeric cells).
	Cells      int
	Mismatched []string // keys with structural differences
	OnlyA      []string // keys only in store A
	OnlyB      []string // keys only in store B
	Common     int
}

// MaxDelta returns the largest |relative delta| across all experiments.
func (r *DiffReport) MaxDelta() float64 {
	m := 0.0
	for _, d := range r.Experiments {
		if v := d.Max(); v > m {
			m = v
		}
	}
	return m
}

// Within reports whether the stores agree within tol everywhere: no
// structural mismatches and every numeric delta <= tol.
func (r *DiffReport) Within(tol float64) bool {
	return len(r.Mismatched) == 0 && r.MaxDelta() <= tol
}

// String renders the per-experiment delta statistics.
func (r *DiffReport) String() string {
	var b strings.Builder
	names := make([]string, 0, len(r.Experiments))
	for n := range r.Experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%-14s %6s %10s %10s %10s\n", "experiment", "cells", "mean|d|", "p95|d|", "max|d|")
	for _, n := range names {
		d := r.Experiments[n]
		fmt.Fprintf(&b, "%-14s %6d %9.4f%% %9.4f%% %9.4f%%\n",
			n, d.Count(), 100*d.Mean(), 100*d.Percentile(95), 100*d.Max())
	}
	fmt.Fprintf(&b, "%d common keys, %d numeric cells compared, max |delta| %.4f%%",
		r.Common, r.Cells, 100*r.MaxDelta())
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
	rep := &DiffReport{Experiments: make(map[string]*stats.Dist)}
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
// numbers in both tables contribute |relative delta| samples; cells that
// are numeric in exactly one table, or differing non-numeric cells, are a
// structural mismatch.
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
	dist := rep.Experiments[a.Experiment]
	if dist == nil {
		dist = &stats.Dist{}
		rep.Experiments[a.Experiment] = dist
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
				dist.Add(relDelta(va, vb))
				rep.Cells++
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

// relDelta is |a-b| relative to the larger magnitude (0 when both are 0).
func relDelta(a, b float64) float64 {
	if a == b {
		return 0
	}
	return math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
}
