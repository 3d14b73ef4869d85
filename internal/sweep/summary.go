package sweep

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// WriteSummary renders a checked store as a markdown scorecard: one section
// per experiment, in the store's order, with the experiment's paper line
// (paper, keyed by experiment name), each claim's room and each guard's
// slack across seeds, and the table of the experiment's first record.
// `rairsweep check -summary` writes it, and testdata/sweep/scorecard.md is
// the golden quick store's.
func WriteSummary(w io.Writer, name string, recs []Record, rep *CheckReport, paper map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scorecard: %s\n\n%d results. A claim's room is its signed distance from the paper's number\n"+
		"(reported, never gated); a guard's slack is how far the shape it gates is from failing.\n", name, len(recs))
	seen := make(map[string]bool)
	for _, r := range recs {
		if seen[r.Experiment] {
			continue
		}
		seen[r.Experiment] = true
		fmt.Fprintf(&b, "\n## %s\n\n%s\n", r.Experiment, paper[r.Experiment])
		writeSpans(&b, "claim", "held at", "room", r.Experiment, rep.Claims.Findings)
		writeSpans(&b, "guard", "passed at", "slack", r.Experiment, rep.Findings)
		fmt.Fprintf(&b, "\nseed %d, %s durations (`%s`):\n\n```\n%s```\n",
			r.Seed, map[bool]string{false: "paper", true: "quick"}[r.Quick], r.Key, r.Text)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeSpans adds a table with one row per guard (or claim) of experiment
// exp in fs: at how many of its seeds it held, and the range of its room.
func writeSpans(b *strings.Builder, kind, held, room, exp string, fs []Finding) {
	fs = slices.DeleteFunc(slices.Clone(fs), func(f Finding) bool { return f.Experiment != exp })
	if len(fs) == 0 {
		return
	}
	fmt.Fprintf(b, "\n| %s | %s | %s min | %s max |\n|---|---|---|---|\n", kind, held, room, room)
	for _, s := range spans(fs) {
		lo, hi := "—", "—"
		if s.n > 0 {
			lo, hi = fmt.Sprintf("%.3g", s.lo), fmt.Sprintf("%.3g", s.hi)
		}
		fmt.Fprintf(b, "| %s | %d of %d | %s | %s |\n", s.Guard, s.seeds-s.failed, s.seeds, lo, hi)
	}
}
