package rair

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"

	"rair/internal/collective"
	"rair/internal/harness"
	"rair/internal/region"
	"rair/internal/sweep"
)

// ExperimentInfo describes one reproducible table/figure of the paper.
type ExperimentInfo struct {
	Name  string
	Paper string // which table/figure/claim it reproduces
}

// colReduction is the last column of a ReductionTable.
const colReduction = "avg reduction vs RO_RR"

// fig9Points is the inter-region fraction axis p of Figures 9 and 10.
var fig9Points = pointsOf(harness.Fig9Scenario, 0, 0.25, 0.5, 0.75, 1.0)

// Scheme axes shared by more than one experiment: Figure 12's DPA
// ablations, the four techniques on the six-application scenario, and the
// scalability studies' baseline and technique.
var (
	fig12Schemes  = []harness.Scheme{harness.RORR(), harness.SchemeAs("RAIR_NativeH", ""), harness.SchemeAs("RAIR_ForeignH", ""), harness.RAIR("RAIR_DPA")}
	sixAppSchemes = harness.ComparedSchemes(harness.SixAppRanks())
	scaleSchemes  = []harness.Scheme{harness.RORR(), harness.RAIR("RA_RAIR")}
)

// pointsOf is the axis of scenario at each value.
func pointsOf[T any](scenario func(T) harness.Point, values ...T) func(quick bool) []harness.Point {
	return func(bool) []harness.Point {
		pts := make([]harness.Point, len(values))
		for i, v := range values {
			pts[i] = scenario(v)
		}
		return pts
	}
}

// reduces is the claim that scheme's average APL reduction vs RO_RR reaches
// the paper's value.
func reduces(scheme string, paper float64) sweep.Guard {
	return sweep.Guard{Name: fmt.Sprintf("%s's average reduction reaches the paper's %+.1f%%", scheme, 100*paper),
		Preds: []sweep.Pred{{Op: sweep.Within, A: sweep.Sel{Row: scheme, Col: colReduction}, Lo: paper}}}
}

// slowdown is the claim that the flood slows scheme down by at most the
// paper's factor. Within with only Hi reads paper − v above paper/2.
func slowdown(scheme string, paper float64) sweep.Guard {
	return sweep.Guard{Name: fmt.Sprintf("%s's average slowdown is at most the paper's %.2f", scheme, paper),
		Preds: []sweep.Pred{{Op: sweep.Within, A: sweep.Sel{Row: scheme, Col: "average"}, Hi: paper}}}
}

// collPARSECGuards is the guard of the three PARSEC co-runs with a
// collective aggressor. At quick durations, seeds 1-5, coll-bcast completes
// 39-45 rounds and coll-a2a 7, and both average slowdowns read 0.98-1.04.
var collPARSECGuards = []sweep.Guard{{Name: "PARSEC co-run sane: all schemes complete rounds, victim slowdowns bounded", Preds: []sweep.Pred{
	{Op: sweep.Within, A: sweep.Sel{Col: "rounds"}, Lo: 1, Min: 4},
	{Op: sweep.Within, A: sweep.Sel{Col: "avg slowdown"}, Lo: 0.90, Hi: 1.50, Min: 4},
}}}

// experiments maps names to drivers. An axis experiment runs its schemes at
// its points in one harness.Axis and renders the panels with axis under its
// title; any other renders a table, or — for the few whose output is not
// one table — text and CSV. points' quick says dur is the reduced setting,
// for an experiment that shrinks its axis with it.
var experiments = map[string]struct {
	paper string
	// guards are the experiment's reproduction targets as predicates over
	// its CSV (the vocabulary is sweep.Pred); rairsweep check gates on them.
	guards []sweep.Guard
	// claims are the paper's numbers in the same words, each bound the
	// paper's value, so a claim's room is its signed distance from the paper.
	// rairsweep check reports them and never gates on them.
	claims  []sweep.Guard
	title   string
	schemes []harness.Scheme
	points  func(quick bool) []harness.Point
	axis    func(title string, pts []harness.Point, ps []*harness.Panel) *harness.Table
	table   func(dur harness.Durations, seed uint64) *harness.Table
	text    func(dur harness.Durations, seed uint64) (text, csv string, err error)
}{
	"fig9": {
		paper: "Figure 9: impact of multi-stage prioritization (APL vs inter-region fraction p)",
		guards: []sweep.Guard{{Name: "APL grows with p; MSP at VA+SA beats VA-only beats RO_RR at p=100%", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RO_RR", Col: "APL App0"}, B: sweep.Sel{Row: "RO_RR", Col: "APL App0", Last: true}, K: 1 / 1.05},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App0", Last: true}, B: sweep.Sel{Row: "RO_RR", Col: "APL App0", Last: true}, K: 0.97},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App0", Last: true}, B: sweep.Sel{Row: "RAIR_VA", Col: "APL App0", Last: true}, K: 0.99},
		}}, {Name: "MSP costs App 1 at most 3% at p=100%; VA-only beats RO_RR; RAIR_VA+SA grows with p", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App1", Last: true}, B: sweep.Sel{Row: "RO_RR", Col: "APL App1", Last: true}, K: 1.03},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA", Col: "APL App0", Last: true}, B: sweep.Sel{Row: "RO_RR", Col: "APL App0", Last: true}},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App0"}, B: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App0", Last: true}, K: 1 / 1.05},
		}}},
		claims: []sweep.Guard{{Name: "RAIR_VA+SA cuts App 0's APL by the paper's 18.9% at p=100%", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_VA+SA", Col: "APL App0", Last: true}, B: sweep.Sel{Row: "RO_RR", Col: "APL App0", Last: true}, K: 1 - 0.189},
		}}},
		title:   "Figure 9: impact of MSP (APL vs inter-region fraction p)",
		schemes: []harness.Scheme{harness.RORR(), harness.SchemeAs("RAIR_VA", ""), harness.RAIR("RAIR_VA+SA")},
		points:  fig9Points,
		axis:    harness.SweepTable,
	},
	"fig10": {
		paper: "Figure 10: impact of routing algorithm (Local vs DBAR selection under RO_RR and RAIR)",
		// RO_RR is the figure's RO_RR_Local.
		claims: []sweep.Guard{{Name: "RAIR_DBAR cuts App 0's APL by the paper's 24.8% against RO_RR_Local at p=100%", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_DBAR", Col: "APL App0", Last: true}, B: sweep.Sel{Row: "RO_RR", Col: "APL App0", Last: true}, K: 1 - 0.248},
		}}},
		title:   "Figure 10: impact of routing algorithm (APL vs p)",
		schemes: []harness.Scheme{harness.RORR(), harness.RAIR("RAIR_Local"), harness.RORRDBAR("RO_RR_DBAR"), harness.SchemeAs("RAIR_DBAR", "")},
		points:  fig9Points,
		axis:    harness.SweepTable,
	},
	"fig12a": {
		paper: "Figure 12(a): dynamic priority adaptation, low apps sending into the hot region",
		guards: []sweep.Guard{{Name: "low apps sending in: ForeignH >> NativeH and DPA tracks the winner", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_NativeH", Col: colReduction}, B: sweep.Sel{Row: "RAIR_ForeignH", Col: colReduction}, Margin: 0.10},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_ForeignH", Col: colReduction}, B: sweep.Sel{Row: "RAIR_DPA", Col: colReduction}, Margin: -0.03},
			{Op: sweep.Within, A: sweep.Sel{Row: "RAIR_DPA", Col: colReduction}, Lo: sweep.Positive},
		}}},
		claims:  []sweep.Guard{reduces("RAIR_DPA", 0.128)},
		title:   "Figure 12(a) low apps send into App3",
		schemes: fig12Schemes,
		points:  pointsOf(harness.Fig12Scenario, harness.Fig12A),
		axis:    harness.ReductionTable,
	},
	"fig12b": {
		paper: "Figure 12(b): dynamic priority adaptation, hot app sending out",
		guards: []sweep.Guard{{Name: "hot app sending out: NativeH beats ForeignH (so adaptation is necessary)", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_ForeignH", Col: colReduction}, B: sweep.Sel{Row: "RAIR_NativeH", Col: colReduction}, Margin: 0.005},
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_ForeignH", Col: colReduction}, B: sweep.Sel{Row: "RAIR_DPA", Col: colReduction}, Margin: -0.005},
		}}, {Name: "DPA never does worse than the losing static mode", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RAIR_ForeignH", Col: colReduction}, B: sweep.Sel{Row: "RAIR_DPA", Col: colReduction}},
		}}},
		claims:  []sweep.Guard{reduces("RAIR_DPA", 0.122)},
		title:   "Figure 12(b) App3 sends out",
		schemes: fig12Schemes,
		points:  pointsOf(harness.Fig12Scenario, harness.Fig12B),
		axis:    harness.ReductionTable,
	},
	"fig14": {
		paper: "Figure 14: six-application RNoC, uniform-random global traffic",
		guards: []sweep.Guard{{Name: "six-app RNoC: no scheme harmful, region-oblivious rank beats DBAR", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Row: "RA_DBAR", Col: colReduction}, Lo: -0.02},
			{Op: sweep.Within, A: sweep.Sel{Row: "RO_Rank", Col: colReduction}, Lo: -0.02},
			{Op: sweep.Within, A: sweep.Sel{Row: "RA_RAIR", Col: colReduction}, Lo: -0.01},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_DBAR", Col: colReduction}, B: sweep.Sel{Row: "RO_Rank", Col: colReduction}, Margin: 0.005},
		}}, {Name: "RA_RAIR lowers every light app's APL; the heavy apps 1 and 5 pay at most 10%", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App0 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App0 APL"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App2 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App2 APL"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App3 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App3 APL"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App4 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App4 APL"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App1 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App1 APL"}, K: 1.10},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "App5 APL"}, B: sweep.Sel{Row: "RO_RR", Col: "App5 APL"}, K: 1.10},
		}}},
		claims:  []sweep.Guard{reduces("RA_DBAR", 0.034), reduces("RO_Rank", 0.058), reduces("RA_RAIR", 0.101)},
		title:   "Figure 14: six-application scenario (UR global traffic)",
		schemes: sixAppSchemes,
		points:  pointsOf(harness.Fig14Scenario, "UR"),
		axis:    harness.ReductionTable,
	},
	"fig15": {
		paper: "Figure 15: average APL reduction across global traffic patterns (UR/TP/BC/HS)",
		claims: []sweep.Guard{{Name: "RA_RAIR's reduction reaches the paper's 13.4% average at every pattern (the UR, TP, BC and HS cells: the table has no cross-pattern mean)", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Col: "RA_RAIR"}, Lo: 0.134, Min: 4},
		}}},
		title:   "Figure 15: average APL reduction vs RO_RR per global traffic pattern",
		schemes: sixAppSchemes,
		points:  pointsOf(harness.Fig14Scenario, "UR", "TP", "BC", "HS"),
		axis:    harness.Fig15Table,
	},
	"fig17": {
		paper: "Figure 17: PARSEC proxies under adversarial traffic (APL slowdown)",
		guards: []sweep.Guard{{Name: fig17Ordering, Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_DBAR", Col: "average"}, B: sweep.Sel{Row: "RO_RR", Col: "average"}, K: 1 / 1.05},
			{Op: sweep.Less, A: sweep.Sel{Row: "RO_Rank", Col: "average"}, B: sweep.Sel{Row: "RA_DBAR", Col: "average"}, K: 1 / 1.05},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "average"}, B: sweep.Sel{Row: "RO_Rank", Col: "average"}, K: 1.02},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "average"}, B: sweep.Sel{Row: "RO_RR", Col: "average"}, K: 1 / 1.5},
		}}, {Name: "the adversary never speeds a scheme up", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Col: "average"}, Lo: 1},
		}}},
		claims: []sweep.Guard{slowdown("RO_RR", 1.92), slowdown("RA_DBAR", 1.75), slowdown("RO_Rank", 1.47), slowdown("RA_RAIR", 1.18)},
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.Fig17Adversarial(dur, seed).SlowdownTable("average")
		},
	},
	"delta": {
		paper: "Section IV.C: DPA hysteresis width ablation (Δ between 0.1 and 0.3, best ≈0.2)",
		claims: []sweep.Guard{{Name: "the paper's best Δ reduces APL no less than the Δ outside [0.1, 0.3] (the 0.20 row against 0.00, 0.40 and 0.50)", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "0.00"}, B: sweep.Sel{Row: "0.20"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "0.40"}, B: sweep.Sel{Row: "0.20"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "0.50"}, B: sweep.Sel{Row: "0.20"}},
		}}},
		title:   "DPA hysteresis ablation: avg APL reduction vs RO_RR per Δ",
		schemes: harness.DeltaSchemes(0, 0.1, 0.2, 0.3, 0.4, 0.5),
		points:  pointsOf(harness.Fig14Scenario, "UR"),
		axis:    harness.DeltaTable,
	},
	"vcsplit": {
		paper: "Section VI: regional/global VC split ablation (roughly even split recommended)",
		claims: []sweep.Guard{{Name: "the even split (2 global, 2 regional VCs) reduces APL no less than 1/3 or 3/1", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "1"}, B: sweep.Sel{Row: "2"}},
			{Op: sweep.Less, A: sweep.Sel{Row: "3"}, B: sweep.Sel{Row: "2"}},
		}}},
		title:   "VC regionalization split ablation (of 4 adaptive VCs)",
		schemes: []harness.Scheme{harness.RAIR("RA_RAIR")},
		points:  func(bool) []harness.Point { return harness.VCSplitPoints(1, 2, 3) },
		axis:    harness.VCSplitTable,
	},
	"lbdr": {
		paper: "Section III.B: LBDR valid-mapping fraction (≈14% with 16 cores, 4 MCs, 4 apps)",
		// A closed form: 64/455 = 0.140659 to the six places the CSV prints.
		guards: []sweep.Guard{{Name: "LBDR-valid fraction is exactly 64/455", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Col: "fraction"}, Lo: 64.0/455 - 5e-7, Hi: 64.0/455 + 5e-7, Min: 1},
		}}},
		text: func(harness.Durations, uint64) (string, string, error) {
			f, err := region.LBDRValidFraction(16, 4, 4, 4)
			if err != nil {
				return "", "", err
			}
			v, _ := f.Float64()
			return fmt.Sprintf("LBDR-valid fraction of application-to-core mappings\n"+
				"cores=16 MCs=4 apps=4 threads=4: %v = %.4f (paper: ≈14%%)\n", f, v), fmt.Sprintf("fraction\n%.6f\n", v), nil
		},
	},
	"fig17-trace": {
		paper: "Figure 17, trace-driven variant: one captured PARSEC trace replayed identically under every scheme",
		// Calibrated at quick durations, seeds 1-5: RA_RAIR 21.9-23.0, the
		// next lowest (RO_RR) 27.9-30.2.
		guards: []sweep.Guard{{Name: "RA_RAIR has the lowest average slowdown under the replayed flood", Preds: []sweep.Pred{
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "average"}, B: sweep.Sel{Row: "RO_RR", Col: "average"}, K: 1 / 1.05},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "average"}, B: sweep.Sel{Row: "RA_DBAR", Col: "average"}, K: 1 / 1.05},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "average"}, B: sweep.Sel{Row: "RO_Rank", Col: "average"}, K: 1 / 1.05},
		}}},
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.Fig17Trace(dur, seed).SlowdownTable("average")
		},
	},
	"batch": {
		paper: "Extension: STC batching-interval ablation under the adversarial flood (the Section III.A batching weakness)",
		guards: []sweep.Guard{{Name: "STC slowdown grows with batching interval (Section III.A weakness)", Preds: []sweep.Pred{
			{Op: sweep.Monotone, A: sweep.Sel{}, K: 0.05, Min: 3},
			{Op: sweep.Less, A: sweep.Sel{}, B: sweep.Sel{Last: true}, K: 1 / 1.5},
		}}},
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.AblateBatching([]int64{125, 250, 1000, 4000}, dur, seed).SlowdownTable("average")
		},
	},
	"scale-cores": {
		paper: "Section VI scalability: RAIR's benefit across mesh sizes (4x4 to 16x16)",
		// RAIR's per-router state is constant, so its benefit should persist.
		claims: []sweep.Guard{{Name: "RAIR's reduction is positive at every mesh size", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{}, Lo: sweep.Positive, Min: 4},
		}}},
		title:   "Scalability: mesh size (4 quadrant regions)",
		schemes: scaleSchemes,
		points:  pointsOf(func(k int) harness.Point { return harness.GridScenario(k, 2, 2) }, 4, 8, 12, 16),
		axis:    harness.ScaleTable,
	},
	"scale-regions": {
		paper: "Section VI scalability: RAIR's benefit across region counts (2 to 16 on 8x8)",
		// A router tracks two flows (native/foreign) at any region count.
		claims: []sweep.Guard{{Name: "RAIR's reduction is positive at every region count", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{}, Lo: sweep.Positive, Min: 4},
		}}},
		title:   "Scalability: region count (8x8 mesh)",
		schemes: scaleSchemes,
		points: pointsOf(func(g [2]int) harness.Point {
			pt := harness.GridScenario(8, g[0], g[1])
			pt.Label = fmt.Sprintf("%d regions", g[0]*g[1])
			return pt
		}, [2]int{2, 1}, [2]int{2, 2}, [2]int{4, 2}, [2]int{4, 4}),
		axis: harness.ScaleTable,
	},
	"coll-synth": {
		paper: "Extension: collective co-run, synthetic victims — ring AllReduce in one region, victim APL slowdown + collective completion time per scheme",
		guards: []sweep.Guard{{Name: "RAIR protects victims from the collective: RA_RAIR slowdown below RO_RR, interference present", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Row: "RO_RR", Col: "avg slowdown"}, Lo: 1.04},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "avg slowdown"}, B: sweep.Sel{Row: "RO_RR", Col: "avg slowdown"}, Margin: 0.02},
			{Op: sweep.Within, A: sweep.Sel{Row: "RA_RAIR", Col: "avg slowdown"}, Lo: 0.95},
		}}, {Name: "bounded collective cost: every scheme completes rounds, RA_RAIR CCT within 1.5x of RO_RR", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Col: "rounds"}, Lo: 1, Min: 4},
			{Op: sweep.Within, A: sweep.Sel{Col: "cct"}, Lo: sweep.Positive, Min: 4},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "cct"}, B: sweep.Sel{Row: "RO_RR", Col: "cct"}, K: 1.5},
		}}},
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.CollectiveSynth(collective.RingAllReduce, dur, seed)
		},
	},
	"coll-allreduce": {
		paper:  "Extension: PARSEC proxies vs a ring-AllReduce aggressor region (victim slowdown + CCT per scheme)",
		guards: collPARSECGuards,
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.CollectivePARSEC(collective.RingAllReduce, dur, seed)
		},
	},
	"coll-bcast": {
		paper:  "Extension: PARSEC proxies vs a binary-tree broadcast aggressor region (victim slowdown + CCT per scheme)",
		guards: collPARSECGuards,
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.CollectivePARSEC(collective.TreeBroadcast, dur, seed)
		},
	},
	"coll-a2a": {
		paper:  "Extension: PARSEC proxies vs an all-to-all shuffle aggressor region (victim slowdown + CCT per scheme)",
		guards: collPARSECGuards,
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.CollectivePARSEC(collective.AllToAll, dur, seed)
		},
	},
	"chiplet-synth": {
		paper: "Extension: chiplet boundary co-run — one RAIR region per chiplet, aggressors flooding the victim tile through the package crossbar (victim APL slowdown per scheme)",
		// Margins calibrated against seeds 1-3 at quick (RO_RR 1.025-1.046,
		// RA_RAIR 1.017-1.038, margin >= 0.006) and paper durations (RO_RR
		// 1.037, RA_RAIR 1.031). The base column is the victim alone: the
		// crossbar carries no flit, so a spread beyond 2% across schemes means
		// the co-run column compares different baselines.
		guards: []sweep.Guard{{Name: "boundary gating works: RA_RAIR victim slowdown below RO_RR, interference present", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Row: "RO_RR", Col: "slowdown"}, Lo: 1.015},
			{Op: sweep.Less, A: sweep.Sel{Row: "RA_RAIR", Col: "slowdown"}, B: sweep.Sel{Row: "RO_RR", Col: "slowdown"}, Margin: 0.003},
			{Op: sweep.Within, A: sweep.Sel{Row: "RA_RAIR", Col: "slowdown"}, Lo: 0.95},
		}}, {Name: "chiplet co-run sane: every scheme's victim slowdown bounded, bases agree", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{Col: "slowdown"}, Lo: 0.95, Hi: 1.5, Min: 4},
			{Op: sweep.Within, A: sweep.Sel{Col: "base apl"}, Lo: sweep.Positive, Min: 4},
			{Op: sweep.Spread, A: sweep.Sel{Col: "base apl"}, K: 1.02},
		}}},
		table: func(dur harness.Durations, seed uint64) *harness.Table {
			return harness.ChipletSynth(dur, seed).ChipletTable()
		},
	},
	"mesh64-scale": {
		paper: "Extension: Section VI scalability pushed to big meshes (up to 64x64, 16-region grid, sharded engine)",
		guards: []sweep.Guard{{Name: "RAIR's benefit survives big meshes: positive reduction at every size", Preds: []sweep.Pred{
			{Op: sweep.Within, A: sweep.Sel{}, Lo: sweep.Positive, Min: 2},
		}}},
		// Sharded: the serial engine would dominate at 4096 routers.
		title:   "Scalability: big meshes (16-region grid, sharded engine)",
		schemes: scaleSchemes,
		points: func(quick bool) []harness.Point {
			var pts []harness.Point
			for _, k := range map[bool][]int{false: {32, 64}, true: {16, 32}}[quick] {
				pt := harness.GridScenario(k, 4, 4)
				pt.Workers = min(runtime.GOMAXPROCS(0), 8)
				pts = append(pts, pt)
			}
			return pts
		},
		axis: harness.ScaleTable,
	},
	"curve": {
		paper: "Supporting: latency-load curve for chip-wide uniform random traffic (saturation calibration)",
		guards: []sweep.Guard{{Name: "latency-load curve monotone with a knee near achieved saturation", Preds: []sweep.Pred{
			{Op: sweep.Monotone, A: sweep.Sel{Col: "apl"}, K: 0.02, Min: 4},
			{Op: sweep.Monotone, A: sweep.Sel{Col: "throughput"}, K: 0.02},
			{Op: sweep.Less, A: sweep.Sel{Col: "apl"}, B: sweep.Sel{Col: "apl", Last: true}, K: 0.5},
			{Op: sweep.Knee, A: sweep.Sel{Col: "apl"}, B: sweep.Sel{Col: "load_frac"}, K: 1.5, Lo: 0.80, Hi: 1.15},
		}}},
		text: func(dur harness.Durations, seed uint64) (string, string, error) {
			pts := pointsOf(harness.UniformScenario, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1)(false)
			text, csv := "fraction of achieved saturation  APL  throughput(flits/node/cycle)\n", "load_frac,apl,throughput\n"
			for _, p := range harness.Axis([]harness.Scheme{harness.RORR()}, pts, dur, seed) {
				apl, thr := p.APL[0][0], p.Cols[0].FlitThroughput(64)
				text += fmt.Sprintf("%s  %8.2f  %.3f\n", p.Title, apl, thr)
				csv += fmt.Sprintf("%s,%.3f,%.4f\n", p.Title, apl, thr)
			}
			return text, csv, nil
		},
	},
}

// names lists the registered experiments in stable order.
func names() []string {
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Experiments lists the available reproductions in stable order.
func Experiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, n := range names() {
		out = append(out, ExperimentInfo{Name: n, Paper: experiments[n].paper})
	}
	return out
}

// RunJob runs one sweep job through the registry: the sweep.Runner of
// rairsweep run and of the quick store's golden test.
func RunJob(_ context.Context, job sweep.Job) (text, csv string, err error) {
	return ExperimentCSV(job.Experiment, job.Quick, job.Seed)
}

// Guards returns the shape guards and the paper's claims of every
// experiment that has any, keyed by experiment name, as sweep.CheckStore
// takes them.
func Guards() (guards, claims map[string][]sweep.Guard) {
	guards, claims = make(map[string][]sweep.Guard), make(map[string][]sweep.Guard)
	for n, e := range experiments {
		if len(e.guards) > 0 {
			guards[n] = e.guards
		}
		if len(e.claims) > 0 {
			claims[n] = e.claims
		}
	}
	return guards, claims
}

// recordedFailures maps a guard to the seeds at which it is known to fail
// on the golden quick store, at quick durations only, exactly: a fix that
// makes one pass must remove it. Figure 17's magnitude term, RA_RAIR <=
// 2/3 x RO_RR, holds at seed 1 only: RO_RR's average rides on its
// blackscholes slowdown, which spans 1.75-5.35 across seeds 1-5, a ratio
// of two unpaired runs (ROADMAP 3(b)).
var recordedFailures = map[string][]uint64{fig17Ordering: {2, 3, 4, 5}}

const fig17Ordering = "adversarial slowdown ordering RO_RR > RA_DBAR > RO_Rank >= RA_RAIR"

// GuardVerdict is TestGoldenQuickStore's and rairsweep check's verdict:
// every finding passes but the recorded failures, which still fail. It
// returns the recorded failures found and one problem per breach.
func GuardVerdict(rep *sweep.CheckReport) (known, problems []string) {
	for _, f := range rep.Findings {
		name := fmt.Sprintf("%s seed=%d quick=%t %s", f.Experiment, f.Seed, f.Quick, f.Guard)
		switch isKnown := f.Quick && slices.Contains(recordedFailures[f.Guard], f.Seed); {
		case f.Err != nil && isKnown:
			known = append(known, name)
		case f.Err != nil:
			problems = append(problems, fmt.Sprintf("%s: %v", name, f.Err))
		case isKnown:
			problems = append(problems, fmt.Sprintf("%s passes now [slack %.3g]: remove it from the recorded failures", name, f.Slack))
		}
	}
	return known, problems
}

// ExperimentCSV reproduces one of the paper's tables/figures by name and
// returns the human-readable text and a CSV rendition. quick trades
// statistical tightness for speed (shorter warmup/measurement windows).
func ExperimentCSV(name string, quick bool, seed uint64) (text, csv string, err error) {
	dur := harness.PaperDurations()
	if quick {
		dur = harness.QuickDurations()
	}
	return runExperiment(name, dur, quick, seed)
}

// runExperiment runs the named experiment at explicit durations.
func runExperiment(name string, dur harness.Durations, quick bool, seed uint64) (text, csv string, err error) {
	e, ok := experiments[name]
	if !ok {
		return "", "", fmt.Errorf("rair: unknown experiment %q (have %v)", name, names())
	}
	if seed == 0 {
		seed = 1
	}
	var t *harness.Table
	switch {
	case e.text != nil:
		return e.text(dur, seed)
	case e.axis != nil:
		pts := e.points(quick)
		t = e.axis(e.title, pts, harness.Axis(e.schemes, pts, dur, seed))
	default:
		t = e.table(dur, seed)
	}
	return t.String(), t.CSV(), nil
}
