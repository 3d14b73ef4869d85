package sweep

import (
	"math"
	"strings"
	"testing"
)

func TestParseCell(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42.5", 42.5, true}, {"+8.2%", 0.082, true}, {"-32.6%", -0.326, true},
		{"100%", 1.0, true}, {"-", 0, false}, {"RO_RR", 0, false},
	} {
		got, err := parseCell(tc.in)
		if (err == nil) != tc.ok || (tc.ok && (got < tc.want-1e-9 || got > tc.want+1e-9)) {
			t.Errorf("parseCell(%q) = %v, %v; want %v ok=%t", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// The vocabulary is tested here on a table of its own; the registry's guards
// are tested against their fixtures in guards_test.go.
const vocabCSV = `scheme,load,apl,gain
base,0.2,10,-
base,0.6,12,-
base,1.0,40,-
new,0.2,10,+0.0%
new,0.6,11,+8.3%
new,1.0,30,+25.0%
`

func TestPredicateRoom(t *testing.T) {
	tbl, err := ParseCSVTable(vocabCSV)
	if err != nil {
		t.Fatal(err)
	}
	base, top := Sel{Row: "base", Col: "apl"}, Sel{Row: "base", Col: "apl", Last: true}
	for _, tc := range []struct {
		p    Pred
		want float64 // NaN: an error, not a verdict
	}{
		{Pred{Op: Less, A: base, B: top}, 30},                                                        // 40 - 10
		{Pred{Op: Less, A: base, B: top, K: 0.5, Margin: 4}, 6},                                      // 0.5*40 - 4 - 10
		{Pred{Op: Less, A: top, B: Sel{Row: "new", Col: "apl", Last: true}}, -10},                    // 30 - 40: fails
		{Pred{Op: Within, A: base, Lo: 5, Hi: 45, Min: 3}, 5},                                        // min(10-5, 45-40)
		{Pred{Op: Within, A: Sel{Row: "new"}, Lo: Positive}, -Positive},                              // +0.0% is not > 0
		{Pred{Op: Within, A: Sel{Row: "new", Last: true}, Lo: Positive}, 0.25},                       // last column, last row
		{Pred{Op: Within, A: base, Lo: 5, Min: 4}, math.NaN()},                                       // three cells, four wanted
		{Pred{Op: Within, A: Sel{}, Lo: 0}, math.NaN()},                                              // every row: "-" is not a number
		{Pred{Op: Within, A: Sel{Row: "absent", Col: "apl"}}, math.NaN()},                            // empty selection
		{Pred{Op: Within, A: Sel{Row: "base", Col: "absent"}}, math.NaN()},                           // missing column
		{Pred{Op: Monotone, A: base}, 2},                                                             // smallest step 12 - 10
		{Pred{Op: Monotone, A: Sel{Col: "apl"}}, -30},                                                // 10 after 40
		{Pred{Op: Monotone, A: Sel{Col: "apl"}, K: 0.8}, 2},                                          // 10 - 40*(1-0.8)
		{Pred{Op: Spread, A: Sel{Row: "new", Col: "apl"}, K: 4}, 10},                                 // 4*10 - 30
		{Pred{Op: Knee, A: base, B: Sel{Row: "base", Col: "load"}, K: 1.5, Lo: 0.8, Hi: 1.15}, 0.15}, // knee at 1.0
		{Pred{Op: Knee, A: base, B: Sel{Row: "base", Col: "load"}, K: 1.1, Lo: 0.8, Hi: 1.15}, -0.2}, // knee at 0.6
		{Pred{Op: Knee, A: base, B: Sel{Row: "base", Col: "load"}, K: 9, Lo: 0.8, Hi: 1.15}, 0.15},   // none: last B
		{Pred{Op: Knee, A: base, B: Sel{Col: "load"}, K: 1.5}, math.NaN()},                           // series differ in length
		{Pred{Op: "Sixth", A: base}, math.NaN()},
	} {
		got, err := tc.p.room(tbl)
		switch {
		case math.IsNaN(tc.want):
			if err == nil {
				t.Errorf("%s: room %v, want an error", tc.p, got)
			}
		case err != nil || math.Abs(got-tc.want) > 1e-9:
			t.Errorf("%s: room %v, %v; want %v", tc.p, got, err, tc.want)
		}
	}
}

// Within's at-most form renders as the row reads, with no infinite bound,
// and reads the distance from Hi on a cell below Hi/2, where Hi alone (Lo 0)
// would read the cell's distance from 0.
func TestWithinAtMost(t *testing.T) {
	tbl, err := ParseCSVTable(vocabCSV)
	if err != nil {
		t.Fatal(err)
	}
	top := Sel{Row: "new", Col: "apl", Last: true} // 30
	for _, tc := range []struct {
		p    Pred
		want float64
		str  string
	}{
		{Pred{Op: Within, A: top, Lo: math.Inf(-1), Hi: 100}, 70, "Within(new[last]:apl Hi=100)"},
		{Pred{Op: Within, A: top, Lo: math.Inf(-1), Hi: 20}, -10, "Within(new[last]:apl Hi=20)"},
		{Pred{Op: Within, A: top, Hi: 100}, 30, "Within(new[last]:apl Hi=100)"},
	} {
		if got, err := tc.p.room(tbl); err != nil || got != tc.want {
			t.Errorf("%s: room %v, %v; want %v", tc.p, got, err, tc.want)
		}
		if got := tc.p.String(); got != tc.str {
			t.Errorf("String() = %q, want %q", got, tc.str)
		}
	}
}

// Two local guards through CheckStore: slack is the smallest room, the
// tightest predicate is named, and three seeds of one guard get a spread
// line that is thin when the smallest slack is below the spread.
func TestCheckStoreSlackAndSeedSpread(t *testing.T) {
	guards := map[string][]Guard{"exp": {
		{Name: "new beats base at the top", Preds: []Pred{
			{Op: Less, A: Sel{Row: "new", Col: "apl", Last: true}, B: Sel{Row: "base", Col: "apl", Last: true}, K: 0.9},
			{Op: Within, A: Sel{Row: "new", Col: "apl"}, Lo: 2},
		}},
		{Name: "base saturates", Preds: []Pred{{Op: Monotone, A: Sel{Row: "base", Col: "apl"}, Min: 3}}},
	}}
	var recs []Record
	for i, top := range []string{"30", "35", "35.9"} {
		recs = append(recs, Record{Key: "k" + top, Experiment: "exp", Seed: uint64(i + 1), Quick: true,
			CSV: strings.Replace(vocabCSV, "new,1.0,30", "new,1.0,"+top, 1)})
	}
	rep := CheckStore(recs, guards, nil)
	if rep.Failed() != 0 || len(rep.Findings) != 6 {
		t.Fatalf("want six passing findings:\n%s", rep)
	}
	for _, f := range rep.Findings {
		if f.Guard == "new beats base at the top" && f.Seed == 1 {
			if math.Abs(f.Slack-6) > 1e-9 || f.Tight != "Less(new[last]:apl, base[last]:apl K=0.9)" {
				t.Errorf("slack %v at %q, want 6 at the Less predicate", f.Slack, f.Tight)
			}
		}
	}
	out := rep.String()
	for _, want := range []string{
		"[slack 6: Less(new[last]:apl, base[last]:apl K=0.9)]",
		"new beats base at the top [slack min 0.1 max 6 spread 5.9 thin]",
		"base saturates [slack min 2 max 2 spread 0]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// Two seeds are not a spread.
	if out := CheckStore(recs[:2], guards, nil).String(); strings.Contains(out, "seeds ") {
		t.Errorf("spread line over two seeds:\n%s", out)
	}
	// The same rows as claims: reported after the guards under their own
	// header, with room in place of slack and no thin mark.
	claims := CheckStore(recs, nil, guards)
	if len(claims.Findings) != 0 || claims.Claims.Failed() != 0 || len(claims.Claims.Findings) != 6 {
		t.Fatalf("want six held claims and no guard finding:\n%s", claims)
	}
	out = claims.String()
	for _, want := range []string{
		"0 guard checks: 0 passed, 0 failed\n\npaper claims, reported and never gated",
		"held exp          seed=1   new beats base at the top [room 6: Less(new[last]:apl, base[last]:apl K=0.9)]",
		"new beats base at the top [room min 0.1 max 6 spread 5.9]",
		"6 claim checks: 6 held, 0 missed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("claims report lacks %q:\n%s", want, out)
		}
	}
}
