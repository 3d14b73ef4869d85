package rair

import (
	"fmt"
	"sort"
	"strings"

	"rair/internal/collective"
	"rair/internal/harness"
	"rair/internal/region"
)

// ExperimentInfo describes one reproducible table/figure of the paper.
type ExperimentInfo struct {
	Name  string
	Paper string // which table/figure/claim it reproduces
}

// experiments maps names to drivers. quick selects reduced durations.
var experiments = map[string]struct {
	paper string
	run   func(quick bool, seed uint64) (text, csv string, err error)
}{
	"fig9": {
		paper: "Figure 9: impact of multi-stage prioritization (APL vs inter-region fraction p)",
		run: func(quick bool, seed uint64) (string, string, error) {
			res := harness.Fig9MSP(durations(quick), []float64{0, 0.25, 0.5, 0.75, 1.0}, seed)
			return tabled(res.Table())
		},
	},
	"fig10": {
		paper: "Figure 10: impact of routing algorithm (Local vs DBAR selection under RO_RR and RAIR)",
		run: func(quick bool, seed uint64) (string, string, error) {
			res := harness.Fig10Routing(durations(quick), []float64{0, 0.25, 0.5, 0.75, 1.0}, seed)
			return tabled(res.Table())
		},
	},
	"fig12a": {
		paper: "Figure 12(a): dynamic priority adaptation, low apps sending into the hot region",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig12DPA(harness.Fig12A, durations(quick), seed).Table())
		},
	},
	"fig12b": {
		paper: "Figure 12(b): dynamic priority adaptation, hot app sending out",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig12DPA(harness.Fig12B, durations(quick), seed).Table())
		},
	},
	"fig14": {
		paper: "Figure 14: six-application RNoC, uniform-random global traffic",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig14SixApp(durations(quick), seed).Table())
		},
	},
	"fig15": {
		paper: "Figure 15: average APL reduction across global traffic patterns (UR/TP/BC/HS)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig15Patterns(durations(quick), seed).Table())
		},
	},
	"fig17": {
		paper: "Figure 17: PARSEC proxies under adversarial traffic (APL slowdown)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig17Adversarial(durations(quick), seed).Table())
		},
	},
	"delta": {
		paper: "Section IV.C: DPA hysteresis width ablation (Δ between 0.1 and 0.3, best ≈0.2)",
		run: func(quick bool, seed uint64) (string, string, error) {
			deltas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
			return tabled(harness.AblateDelta(deltas, durations(quick), seed).Table())
		},
	},
	"vcsplit": {
		paper: "Section VI: regional/global VC split ablation (roughly even split recommended)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.AblateVCSplit([]int{1, 2, 3}, durations(quick), seed).Table())
		},
	},
	"lbdr": {
		paper: "Section III.B: LBDR valid-mapping fraction (≈14% with 16 cores, 4 MCs, 4 apps)",
		run: func(quick bool, seed uint64) (string, string, error) {
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
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.Fig17Trace(durations(quick), seed).Table())
		},
	},
	"age": {
		paper: "Extension: oldest-first arbitration (Abts & Weisser [1]) under the adversarial flood",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.AblateAgeBased(durations(quick), seed).Table())
		},
	},
	"matrix": {
		paper: "Extension: pairwise interference matrix (leave-one-out) under RO_RR and RA_RAIR",
		run: func(quick bool, seed uint64) (string, string, error) {
			var text, csv string
			for _, scheme := range []string{"RO_RR", "RA_RAIR"} {
				m, err := harness.MeasureInterference(scheme, durations(quick), seed)
				if err != nil {
					return "", "", err
				}
				t := m.Table()
				text += t.String() + "\n"
				csv += t.CSV()
			}
			return text, csv, nil
		},
	},
	"rankdyn": {
		paper: "Extension: what the paper's 'optimal ranking' oracle is worth — oracle vs measured STC ranking",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.AblateRankOracle(durations(quick), seed).Table())
		},
	},
	"batch": {
		paper: "Extension: STC batching-interval ablation under the adversarial flood (the Section III.A batching weakness)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.AblateBatching([]int64{125, 250, 1000, 4000}, durations(quick), seed).Table())
		},
	},
	"scale-cores": {
		paper: "Section VI scalability: RAIR's benefit across mesh sizes (4x4 to 16x16)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.ScaleCores(durations(quick), seed).Table())
		},
	},
	"scale-regions": {
		paper: "Section VI scalability: RAIR's benefit across region counts (2 to 16 on 8x8)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.ScaleRegions(durations(quick), seed).Table())
		},
	},
	"workloads": {
		paper: "Supporting: PARSEC 2.0 proxy characterization (all 13 applications the infrastructure supports)",
		run: func(quick bool, seed uint64) (string, string, error) {
			cycles := 200000
			if quick {
				cycles = 50000
			}
			return tabled(harness.CharacterizeWorkloads(cycles, seed).Table())
		},
	},
	"heatmap": {
		paper: "Supporting: link-utilization heatmap of the six-application scenario",
		run: func(quick bool, seed uint64) (string, string, error) {
			out, err := harness.Heatmap("RO_RR", durations(quick), seed)
			if err != nil {
				return "", "", err
			}
			return out, "", nil

		},
	},
	"coll-synth": {
		paper: "Extension: collective co-run, synthetic victims — ring AllReduce in one region, victim APL slowdown + collective completion time per scheme",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.CollectiveSynth(collective.RingAllReduce, durations(quick), seed).Table())
		},
	},
	"coll-allreduce": {
		paper: "Extension: PARSEC proxies vs a ring-AllReduce aggressor region (victim slowdown + CCT per scheme)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.CollectivePARSEC(collective.RingAllReduce, durations(quick), seed).Table())
		},
	},
	"coll-bcast": {
		paper: "Extension: PARSEC proxies vs a binary-tree broadcast aggressor region (victim slowdown + CCT per scheme)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.CollectivePARSEC(collective.TreeBroadcast, durations(quick), seed).Table())
		},
	},
	"coll-a2a": {
		paper: "Extension: PARSEC proxies vs an all-to-all shuffle aggressor region (victim slowdown + CCT per scheme)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.CollectivePARSEC(collective.AllToAll, durations(quick), seed).Table())
		},
	},
	"chiplet-synth": {
		paper: "Extension: chiplet boundary co-run — one RAIR region per chiplet, aggressors flooding the victim tile through the package crossbar (victim APL slowdown per scheme)",
		run: func(quick bool, seed uint64) (string, string, error) {
			return tabled(harness.ChipletSynth(durations(quick), seed).Table())
		},
	},
	"mesh64-scale": {
		paper: "Extension: Section VI scalability pushed to big meshes (up to 64x64, 16-region grid, sharded engine)",
		run: func(quick bool, seed uint64) (string, string, error) {
			ks := []int{32, 64}
			if quick {
				ks = []int{16, 32}
			}
			return tabled(harness.ScaleBigMesh(ks, durations(quick), seed).Table())
		},
	},
	"curve": {
		paper: "Supporting: latency-load curve for chip-wide uniform random traffic (saturation calibration)",
		run: func(quick bool, seed uint64) (string, string, error) {
			fracs := []float64{0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0, 1.1}
			pts := harness.LatencyLoadCurve(fracs, durations(quick), seed)
			var b, csv strings.Builder
			b.WriteString("fraction of achieved saturation  APL  throughput(flits/node/cycle)\n")
			csv.WriteString("load_frac,apl,throughput\n")
			for _, p := range pts {
				fmt.Fprintf(&b, "%.2f  %8.2f  %.3f\n", p.Frac, p.APL, p.Throughput)
				fmt.Fprintf(&csv, "%.2f,%.3f,%.4f\n", p.Frac, p.APL, p.Throughput)
			}
			return b.String(), csv.String(), nil
		},
	},
}

func durations(quick bool) harness.Durations {
	if quick {
		return harness.QuickDurations()
	}
	return harness.PaperDurations()
}

// Experiments lists the available reproductions in stable order.
func Experiments() []ExperimentInfo {
	names := make([]string, 0, len(experiments))
	for n := range experiments {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]ExperimentInfo, len(names))
	for i, n := range names {
		out[i] = ExperimentInfo{Name: n, Paper: experiments[n].paper}
	}
	return out
}

// Experiment reproduces one of the paper's tables/figures by name and
// returns the formatted result. quick trades statistical tightness for
// speed (shorter warmup/measurement windows).
func Experiment(name string, quick bool, seed uint64) (string, error) {
	text, _, err := ExperimentCSV(name, quick, seed)
	return text, err
}

// ExperimentCSV is Experiment returning both the human-readable text and a
// CSV rendition (empty for experiments without tabular output).
func ExperimentCSV(name string, quick bool, seed uint64) (text, csv string, err error) {
	e, ok := experiments[name]
	if !ok {
		return "", "", fmt.Errorf("rair: unknown experiment %q (have %v)", name, names())
	}
	if seed == 0 {
		seed = 1
	}
	return e.run(quick, seed)
}

// tabled renders a harness table as (text, csv, nil).
func tabled(t *harness.Table) (string, string, error) { return t.String(), t.CSV(), nil }

func names() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.Name)
	}
	return out
}
