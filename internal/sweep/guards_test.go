package sweep_test

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"rair"
	"rair/internal/sweep"
)

// The guard table lives beside the experiment registry (package rair); these
// tests run it through the checker from outside the package. The fixtures
// below mirror the real rairbench -quick -seed 1 outputs (see
// EXPERIMENTS.md): the guards are calibrated against exactly these shapes.

const fig17CSV = `scheme,blackscholes,swaptions,fluidanimate,raytrace,average
RO_RR,5.35,1.67,1.60,1.33,2.49
RA_DBAR,3.31,1.69,1.64,1.30,1.98
RO_Rank,1.39,1.62,1.52,1.53,1.51
RA_RAIR,1.16,1.71,1.53,1.42,1.46
`

const fig9CSV = `scheme,p,APL App0,APL App1
RO_RR,0%,29.12,34.59
RO_RR,50%,38.72,35.50
RO_RR,100%,48.20,36.01
RAIR_VA,0%,29.12,34.59
RAIR_VA,50%,38.22,35.68
RAIR_VA,100%,47.21,36.14
RAIR_VA+SA,0%,29.12,34.59
RAIR_VA+SA,50%,36.27,35.99
RAIR_VA+SA,100%,43.29,36.58
`

const fig12aCSV = `scheme,App0 APL,App1 APL,App2 APL,App3 APL,avg reduction vs RO_RR
RO_RR,36.46,31.92,31.84,46.65,-
RAIR_NativeH,45.22,40.58,38.78,73.46,-32.6%
RAIR_ForeignH,31.74,27.69,27.53,49.83,+8.2%
RAIR_DPA,31.77,27.68,27.49,48.92,+8.7%
`

const fig12bCSV = `scheme,App0 APL,App1 APL,App2 APL,App3 APL,avg reduction vs RO_RR
RO_RR,23.28,23.20,23.26,32.55,-
RAIR_NativeH,22.98,22.86,22.87,32.94,+0.8%
RAIR_ForeignH,23.58,23.57,23.72,32.31,-1.0%
RAIR_DPA,23.39,23.33,23.37,32.66,-0.5%
`

const fig14CSV = `scheme,App0 APL,App1 APL,App2 APL,App3 APL,App4 APL,App5 APL,avg reduction vs RO_RR
RO_RR,27.31,35.29,26.61,27.42,26.62,35.31,-
RA_DBAR,27.33,35.42,26.55,27.49,26.60,34.99,+0.1%
RO_Rank,26.08,35.49,25.19,26.83,25.31,38.00,+1.5%
RA_RAIR,26.43,36.80,25.61,27.20,25.72,36.73,+0.5%
`

const curveCSV = `load_frac,apl,throughput
0.10,35.732,0.0332
0.50,37.347,0.1656
0.80,41.046,0.2649
0.90,44.158,0.2977
1.00,51.144,0.3303
1.10,3068.794,0.3631
`

const batchCSV = `scheme,blackscholes,swaptions,fluidanimate,raytrace,average
RO_Rank_B125,1.32,1.58,1.47,1.49,1.46
RO_Rank_B250,1.39,1.62,1.52,1.53,1.51
RO_Rank_B1000,4.20,2.40,2.21,1.96,2.69
RO_Rank_B4000,17.65,6.13,4.70,4.75,8.31
`

const collSynthCSV = `scheme,app0,app1,app2,avg slowdown,cct,rounds
RO_RR,1.07,1.07,1.09,1.08,1477.6,8
RA_DBAR,1.07,1.08,1.09,1.08,1466.1,8
RO_Rank,1.03,1.05,1.04,1.04,1475.6,8
RA_RAIR,1.02,1.02,1.02,1.02,1484.0,8
`

const chipletSynthCSV = `scheme,base apl,co apl,slowdown,co p99
RO_RR,22.62,23.66,1.046,43.00
RA_DBAR,22.63,23.67,1.046,43.00
RO_Rank,22.62,24.55,1.085,51.00
RA_RAIR,22.62,23.47,1.038,43.00
`

const mesh64ScaleCSV = `config,nodes,regions,RO_RR APL,RA_RAIR APL,avg reduction
16x16,256,16,42.14,39.32,+6.7%
32x32,1024,16,68.90,66.73,+3.1%
`

const collAllreduceCSV = `scheme,blackscholes,swaptions,fluidanimate,avg slowdown,cct,rounds
RO_RR,1.04,1.00,1.01,1.02,1863.0,6
RA_DBAR,1.03,1.03,1.02,1.03,1910.7,6
RO_Rank,1.04,0.99,1.00,1.01,1971.0,6
RA_RAIR,1.00,1.00,1.00,1.00,1931.3,6
`

const collBcastCSV = `scheme,blackscholes,swaptions,fluidanimate,avg slowdown,cct,rounds
RO_RR,0.99,1.03,0.99,1.00,252.1,44
RA_DBAR,1.05,1.05,1.01,1.04,251.1,44
RO_Rank,1.00,0.99,1.00,1.00,277.4,40
RA_RAIR,0.98,0.99,1.01,0.99,257.0,43
`

const collA2ACSV = `scheme,blackscholes,swaptions,fluidanimate,avg slowdown,cct,rounds
RO_RR,1.05,1.04,1.02,1.04,1519.7,7
RA_DBAR,1.04,1.02,1.03,1.03,1544.1,7
RO_Rank,1.02,1.01,1.02,1.01,1558.9,7
RA_RAIR,1.02,1.02,1.01,1.01,1582.7,7
`

const fig17TraceCSV = `scheme,blackscholes,swaptions,fluidanimate,raytrace,average
RO_RR,20.40,35.27,35.54,25.25,29.11
RA_DBAR,20.22,41.87,41.62,25.64,32.34
RO_Rank,34.60,35.67,30.73,30.05,32.76
RA_RAIR,4.33,31.34,26.23,25.58,21.87
`

const lbdrCSV = `fraction
0.140659
`

func goodRecords() []sweep.Record {
	recs := []sweep.Record{
		{Experiment: "fig9", CSV: fig9CSV},
		{Experiment: "fig12a", CSV: fig12aCSV},
		{Experiment: "fig12b", CSV: fig12bCSV},
		{Experiment: "fig14", CSV: fig14CSV},
		{Experiment: "fig17", CSV: fig17CSV},
		{Experiment: "curve", CSV: curveCSV},
		{Experiment: "batch", CSV: batchCSV},
		{Experiment: "coll-synth", CSV: collSynthCSV},
		{Experiment: "coll-allreduce", CSV: collAllreduceCSV},
		{Experiment: "chiplet-synth", CSV: chipletSynthCSV},
		{Experiment: "mesh64-scale", CSV: mesh64ScaleCSV},
		{Experiment: "coll-bcast", CSV: collBcastCSV},
		{Experiment: "coll-a2a", CSV: collA2ACSV},
		{Experiment: "fig17-trace", CSV: fig17TraceCSV},
		{Experiment: "lbdr", CSV: lbdrCSV},
	}
	for i := range recs {
		recs[i].Seed = 1
		recs[i].Quick = true
		recs[i].Key = sweep.Job{Experiment: recs[i].Experiment, Seed: 1, Quick: true}.Key()
		recs[i].Text = recs[i].Experiment + " table\n"
	}
	return recs
}

func TestGuardsPassOnReferenceShapes(t *testing.T) {
	rep := sweep.CheckStore(goodRecords(), rair.Guards())
	if rep.Failed() != 0 {
		t.Fatalf("reference store failed guards:\n%s", rep)
	}
	want := 0
	for _, gs := range rair.Guards() {
		want += len(gs)
	}
	if len(rep.Findings) != want || want != 21 {
		t.Errorf("ran %d guards of %d, want all 21 (every guard covered by the fixtures)", len(rep.Findings), want)
	}
	if len(rep.Missing) != 0 {
		t.Errorf("guarded experiments missing from full fixture set: %v", rep.Missing)
	}
}

// TestGuardsCatchPerturbedOrdering is the acceptance case: swapping the
// fig17 scheme ordering (RAIR made worst, RO_RR best) must fail check.
func TestGuardsCatchPerturbedOrdering(t *testing.T) {
	recs := goodRecords()
	for i := range recs {
		if recs[i].Experiment == "fig17" {
			recs[i].CSV = strings.NewReplacer("RO_RR,", "XX,", "RA_RAIR,", "RO_RR,").Replace(recs[i].CSV)
			recs[i].CSV = strings.Replace(recs[i].CSV, "XX,", "RA_RAIR,", 1)
		}
	}
	rep := sweep.CheckStore(recs, rair.Guards())
	if rep.Failed() == 0 {
		t.Fatalf("perturbed fig17 ordering passed the guards:\n%s", rep)
	}
	failed := false
	for _, f := range rep.Findings {
		if f.Experiment == "fig17" && f.Err != nil {
			failed = true
		}
	}
	if !failed {
		t.Error("the failure was not attributed to the fig17 guard")
	}
}

func TestGuardsCatchBrokenShapes(t *testing.T) {
	cases := []struct {
		name, experiment, from, to string
	}{
		// fig12a: hogging collapse wins — NativeH suddenly best.
		{"fig12a inversion", "fig12a", "-32.6%", "+20.0%"},
		// fig12b: NativeH loses its edge.
		{"fig12b inversion", "fig12b", "+0.8%", "-3.0%"},
		// fig9: MSP stops helping at p=100%.
		{"fig9 no MSP win", "fig9", "RAIR_VA+SA,100%,43.29", "RAIR_VA+SA,100%,48.10"},
		// curve: latency collapses at high load (non-monotone).
		{"curve non-monotone", "curve", "1.00,51.144", "1.00,20.000"},
		// batch: coarse batching suddenly fine.
		{"batch flat", "batch", "RO_Rank_B4000,17.65,6.13,4.70,4.75,8.31", "RO_Rank_B4000,1.30,1.30,1.30,1.30,1.30"},
		// fig14: RAIR harmful on average.
		{"fig14 harmful", "fig14", ",+0.5%", ",-6.0%"},
		// coll-synth: RAIR loses its protection edge over the baseline.
		{"coll-synth no protection", "coll-synth", "RA_RAIR,1.02,1.02,1.02,1.02", "RA_RAIR,1.08,1.08,1.08,1.08"},
		// coll-synth: protection bought with an unbounded collective stall.
		{"coll-synth cct blowup", "coll-synth", "RA_RAIR,1.02,1.02,1.02,1.02,1484.0", "RA_RAIR,1.02,1.02,1.02,1.02,9484.0"},
		// coll-synth: a scheme stops completing rounds entirely.
		{"coll-synth no rounds", "coll-synth", "RO_Rank,1.03,1.05,1.04,1.04,1475.6,8", "RO_Rank,1.03,1.05,1.04,1.04,0.0,0"},
		// coll-allreduce: victim slowdown outside the sanity band.
		{"coll-allreduce runaway slowdown", "coll-allreduce", "RA_DBAR,1.03,1.03,1.02,1.03", "RA_DBAR,1.03,1.03,1.02,1.93"},
		// chiplet-synth: RAIR's boundary gating stops beating the baseline.
		{"chiplet no gating edge", "chiplet-synth", "RA_RAIR,22.62,23.47,1.038", "RA_RAIR,22.62,23.71,1.048"},
		// chiplet-synth: the baseline stops showing boundary interference at all.
		{"chiplet no interference", "chiplet-synth", "RO_RR,22.62,23.66,1.046", "RO_RR,22.62,22.71,1.004"},
		// chiplet-synth: a scheme's slowdown leaves the sanity band.
		{"chiplet runaway slowdown", "chiplet-synth", "RO_Rank,22.62,24.55,1.085", "RO_Rank,22.62,38.00,1.680"},
		// chiplet-synth: the base (victim-alone) points stop agreeing across schemes.
		{"chiplet base drift", "chiplet-synth", "RA_DBAR,22.63", "RA_DBAR,25.80"},
		// mesh64-scale: RAIR turns harmful at a big mesh size.
		{"mesh64 harmful", "mesh64-scale", "32x32,1024,16,68.90,66.73,+3.1%", "32x32,1024,16,68.90,71.30,-3.5%"},
		// coll-bcast: a victim slowdown leaves the sanity band.
		{"coll-bcast runaway slowdown", "coll-bcast", "RA_DBAR,1.05,1.05,1.01,1.04", "RA_DBAR,1.05,1.05,1.01,1.64"},
		// coll-bcast: a scheme stops completing broadcasts.
		{"coll-bcast no rounds", "coll-bcast", "277.4,40", "0.0,0"},
		// coll-a2a: a scheme stops completing shuffles.
		{"coll-a2a no rounds", "coll-a2a", "1582.7,7", "0.0,0"},
		// fig17-trace: RA_RAIR is no longer the lowest by 5 %.
		{"fig17-trace RAIR not lowest", "fig17-trace", "RA_RAIR,4.33,31.34,26.23,25.58,21.87", "RA_RAIR,4.33,31.34,26.23,25.58,28.00"},
		// lbdr: the fraction moves off 64/455 in the sixth decimal.
		{"lbdr off the closed form", "lbdr", "0.140659", "0.140660"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := sweep.CheckStore(perturbed(t, tc.experiment, tc.from, tc.to), rair.Guards()); rep.Failed() == 0 {
				t.Errorf("perturbation passed the guards:\n%s", rep)
			}
		})
	}
}

// perturbed is goodRecords with from replaced by to in the experiment's CSV.
func perturbed(t *testing.T, experiment, from, to string) []sweep.Record {
	t.Helper()
	recs := goodRecords()
	changed := false
	for i := range recs {
		if recs[i].Experiment == experiment {
			mut := strings.Replace(recs[i].CSV, from, to, 1)
			changed = mut != recs[i].CSV
			recs[i].CSV = mut
		}
	}
	if !changed {
		t.Fatalf("fixture does not contain %q", from)
	}
	return recs
}

// TestGuardsCatchAlone: each case is a perturbation that every guard but
// one lets through, so that guard is the only one to fail on it — the
// predicates it adds are not implied by the others.
func TestGuardsCatchAlone(t *testing.T) {
	cases := []struct {
		name, experiment, from, to, guard string
	}{
		// fig9: MSP costs App 1 4 % at p=100 %, past the paper's 3 %.
		{"fig9 App1 penalty", "fig9", "RAIR_VA+SA,100%,43.29,36.58", "RAIR_VA+SA,100%,43.29,37.45", "MSP costs App 1"},
		// fig9: VA-only prioritization no longer beats RO_RR.
		{"fig9 VA-only no win", "fig9", "RAIR_VA,100%,47.21", "RAIR_VA,100%,48.30", "MSP costs App 1"},
		// fig9: App 0 under RAIR_VA+SA stops growing with p.
		{"fig9 VA+SA flat in p", "fig9", "RAIR_VA+SA,0%,29.12", "RAIR_VA+SA,0%,42.00", "MSP costs App 1"},
		// fig12b: DPA falls 0.3 pp below the losing static mode.
		{"fig12b DPA below ForeignH", "fig12b", "RAIR_DPA,23.39,23.33,23.37,32.66,-0.5%", "RAIR_DPA,23.39,23.33,23.37,32.66,-1.3%", "DPA never"},
		// fig14: RA_RAIR makes the light App 2 slower than RO_RR.
		{"fig14 App2 above RO_RR", "fig14", "RA_RAIR,26.43,36.80,25.61", "RA_RAIR,26.43,36.80,26.80", "RA_RAIR lowers"},
		// fig14: the heavy App 5 pays 12 %.
		{"fig14 App5 penalty", "fig14", "RA_RAIR,26.43,36.80,25.61,27.20,25.72,36.73", "RA_RAIR,26.43,36.80,25.61,27.20,25.72,39.55", "RA_RAIR lowers"},
		// fig17: the adversary speeds RA_RAIR up.
		{"fig17 average below 1", "fig17", "RA_RAIR,1.16,1.71,1.53,1.42,1.46", "RA_RAIR,1.16,1.71,1.53,1.42,0.98", "the adversary never"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := sweep.CheckStore(perturbed(t, tc.experiment, tc.from, tc.to), rair.Guards())
			if rep.Failed() != 1 || !slices.ContainsFunc(rep.Findings, func(f sweep.Finding) bool {
				return f.Err != nil && strings.HasPrefix(f.Guard, tc.guard)
			}) {
				t.Errorf("want only the guard %q to fail:\n%s", tc.guard, rep)
			}
		})
	}
}

func TestCheckStoreReportsCoverage(t *testing.T) {
	recs := []sweep.Record{
		{Key: "k1", Experiment: "fig17", Seed: 1, CSV: fig17CSV},
		{Key: "k2", Experiment: "fig10", Seed: 1, Text: "table"},
	}
	rep := sweep.CheckStore(recs, rair.Guards())
	if rep.Failed() != 0 {
		t.Fatalf("partial store failed: %s", rep)
	}
	if len(rep.Missing) == 0 {
		t.Error("missing guarded experiments not reported")
	}
	if len(rep.Unchecked) != 1 || rep.Unchecked[0] != "fig10" {
		t.Errorf("Unchecked = %v, want [fig10]", rep.Unchecked)
	}
	if empty := sweep.CheckStore(nil, rair.Guards()); len(empty.Findings) != 0 {
		t.Errorf("an empty store has %d findings", len(empty.Findings))
	}
}

// A record whose table lacks the cells a guard names is a FAIL finding, never
// an index out of range: a row cut short (it panicked the fig9 closure), a
// header with no rows, and "-" where a number is expected.
func TestCheckStoreMalformedTables(t *testing.T) {
	for name, csv := range map[string]string{
		"truncated row": "scheme,p,APL App0,APL App1\nRO_RR\n",
		"header only":   "scheme,p,APL App0,APL App1\n",
		"dash cell":     strings.Replace(fig9CSV, "RO_RR,100%,48.20", "RO_RR,100%,-", 1),
	} {
		rep := sweep.CheckStore([]sweep.Record{{Key: "k", Experiment: "fig9", Seed: 1, CSV: csv}}, rair.Guards())
		n := len(rair.Guards()["fig9"])
		if len(rep.Findings) != n || rep.Failed() != n || !strings.HasPrefix(rep.String(), "FAIL fig9") {
			t.Errorf("%s: want a FAIL finding per fig9 guard, got:\n%s", name, rep)
		}
	}
}

func TestDiffStores(t *testing.T) {
	a := goodRecords()
	b := goodRecords()
	rep := sweep.DiffStores(a, b)
	if !rep.Within(0) {
		t.Fatalf("identical stores diff non-zero: %s", rep)
	}
	if rep.Common != len(a) || rep.Cells == 0 {
		t.Errorf("Common=%d Cells=%d, want %d common and > 0 cells", rep.Common, rep.Cells, len(a))
	}

	// Perturb one fig17 value by ~2%: caught at tol 0, passes at tol 0.05.
	for i := range b {
		if b[i].Experiment == "fig17" {
			b[i].CSV = strings.Replace(b[i].CSV, "2.49", "2.54", 1)
		}
	}
	rep = sweep.DiffStores(a, b)
	if rep.Within(0) {
		t.Error("2% perturbation passed exact diff")
	}
	// The moved cell is listed once, with its row, column and both values.
	x, y := 2.49, 2.54 // variables, so the delta is rounded as at run time
	want := sweep.Moved{Experiment: "fig17", Seed: 1, Line: 2, Row: "RO_RR", Col: "average", A: x, B: y, Delta: (y - x) / y}
	if len(rep.Moved) != 1 || rep.Moved[0] != want || !strings.Contains(rep.String(), "1 moved") {
		t.Errorf("moved cells %+v, want [%+v]:\n%s", rep.Moved, want, rep)
	}
	if !rep.Within(0.05) {
		t.Errorf("2%% perturbation failed 5%% tolerance: max %f", rep.MaxDelta())
	}

	// A structural change (renamed scheme) is a mismatch at any tolerance.
	for i := range b {
		if b[i].Experiment == "fig14" {
			b[i].CSV = strings.Replace(b[i].CSV, "RO_Rank", "RO_Renamed", 1)
		}
	}
	rep = sweep.DiffStores(a, b)
	if rep.Within(1) {
		t.Error("structural mismatch passed diff")
	}

	// Disjoint keys are reported, not compared.
	only := sweep.DiffStores(a[:1], a[1:])
	if len(only.OnlyA) != 1 || len(only.OnlyB) != len(a)-1 || only.Common != 0 {
		t.Errorf("disjoint diff: OnlyA=%d OnlyB=%d Common=%d", len(only.OnlyA), len(only.OnlyB), only.Common)
	}

	// A key in one store only fails at any tolerance: an empty candidate
	// store, and one with a record missing, do not match the baseline.
	for name, cand := range map[string][]sweep.Record{"empty": nil, "missing record": a[1:]} {
		if rep := sweep.DiffStores(a, cand); rep.Within(1) {
			t.Errorf("%s candidate store passed diff: %s", name, rep)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	recs := goodRecords()
	rep := sweep.CheckStore(recs, rair.Guards())
	var buf bytes.Buffer
	if err := sweep.WriteSummary(&buf, "golden", recs, rep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# Sweep summary: golden", "## Shape guards", "## fig17", "seed 1, quick durations"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
