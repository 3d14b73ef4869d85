package rair

// One benchmark per reproduced table/figure. Each iteration runs the
// corresponding experiment at reduced (benchmark-sized) durations so the
// suite completes quickly; the rairbench command runs the same drivers at
// the paper's full durations. Reported custom metrics carry the headline
// result of each experiment so `go test -bench` output doubles as a
// regression record of the reproduction.

import (
	"testing"

	"rair/internal/harness"
	"rair/internal/region"
)

// benchDur keeps benchmark iterations short.
func benchDur() harness.Durations {
	return harness.Durations{Warmup: 500, Measure: 3000, Drain: 5000}
}

// BenchmarkFig9MSP regenerates Figure 9 (impact of multi-stage
// prioritization): APL of both apps as the inter-region fraction sweeps.
func BenchmarkFig9MSP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := []float64{0, 0.5, 1.0}
		res := harness.Fig9MSP(benchDur(), ps, 1)
		// APL reduction of App 0 at p=100% for RAIR_VA+SA vs RO_RR: rows run
		// scheme-major over ps, so the last row of the third and first block.
		rr, rair := res.APL[len(ps)-1][0], res.APL[3*len(ps)-1][0]
		b.ReportMetric(100*(rr-rair)/rr, "app0_reduction_%")
	}
}

// BenchmarkFig10Routing regenerates Figure 10 (impact of routing
// algorithm): Local vs DBAR selection under RO_RR and RAIR.
func BenchmarkFig10Routing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps := []float64{0, 0.5, 1.0}
		res := harness.Fig10Routing(benchDur(), ps, 1)
		// RAIR_DBAR (fourth block of rows) vs RO_RR (first) at p=100%.
		rr, rair := res.APL[len(ps)-1][0], res.APL[4*len(ps)-1][0]
		b.ReportMetric(100*(rr-rair)/rr, "app0_reduction_%")
	}
}

// BenchmarkFig12DPA regenerates Figure 12 (dynamic priority adaptation) on
// both load-heterogeneity scenarios.
func BenchmarkFig12DPA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a := harness.Fig12DPA(harness.Fig12A, benchDur(), 1)
		bb := harness.Fig12DPA(harness.Fig12B, benchDur(), 1)
		b.ReportMetric(100*a.AvgReduction(3), "dpa_a_reduction_%")
		b.ReportMetric(100*bb.AvgReduction(3), "dpa_b_reduction_%")
	}
}

// BenchmarkFig14SixApp regenerates Figure 14 (six-application scenario,
// uniform-random global traffic).
func BenchmarkFig14SixApp(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig14SixApp(benchDur(), 1)
		b.ReportMetric(100*res.AvgReduction(3), "rair_avg_reduction_%")
	}
}

// BenchmarkFig15Patterns regenerates Figure 15 (global traffic patterns).
func BenchmarkFig15Patterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		panels := harness.Fig15Patterns(benchDur(), 1)
		sum := 0.0
		for _, p := range panels {
			sum += p.AvgReduction(len(p.Labels) - 1)
		}
		b.ReportMetric(100*sum/float64(len(panels)), "rair_avg_reduction_%")
	}
}

// BenchmarkFig17Adversarial regenerates Figure 17 (PARSEC proxies under
// adversarial traffic).
func BenchmarkFig17Adversarial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.Fig17Adversarial(benchDur(), 1)
		b.ReportMetric(res.AvgSlowdown(0), "rorr_slowdown")
		b.ReportMetric(res.AvgSlowdown(3), "rair_slowdown")
	}
}

// BenchmarkAblateDelta regenerates the Section IV.C hysteresis sweep.
func BenchmarkAblateDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblateDelta([]float64{0, 0.2, 0.5}, benchDur(), 1)
		b.ReportMetric(100*res.AvgReduction(2), "delta02_reduction_%")
	}
}

// BenchmarkAblateVCSplit regenerates the Section VI VC split ablation.
func BenchmarkAblateVCSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := harness.AblateVCSplit([]int{1, 2, 3}, benchDur(), 1)
		b.ReportMetric(100*res.AvgReduction(2), "even_split_reduction_%")
	}
}

// BenchmarkLatencyLoad regenerates the supporting latency-load curve used
// to calibrate saturation.
func BenchmarkLatencyLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := harness.LatencyLoadCurve([]float64{0.3, 0.7, 1.0}, benchDur(), 1)
		b.ReportMetric(p.Cols[len(p.Cols)-1].FlitThroughput(64), "sat_flits_node_cycle")
	}
}

// BenchmarkLBDRFraction regenerates the Section III.B combinatorial result.
func BenchmarkLBDRFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := region.LBDRValidFraction(16, 4, 4, 4)
		if err != nil {
			b.Fatal(err)
		}
		v, _ := f.Float64()
		b.ReportMetric(100*v, "valid_mappings_%")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: cycles per
// second for the 64-node mesh under moderate uniform load with RAIR.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sim, err := New(Config{Layout: LayoutQuadrants, Scheme: "RA_RAIR", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		if err := sim.AddApp(AppSpec{App: a, LoadFrac: 0.5, GlobalFrac: 0.2}); err != nil {
			b.Fatal(err)
		}
	}
	const cyclesPerRun = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(Phases{Warmup: 0, Measure: cyclesPerRun, Drain: 0}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cyclesPerRun)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}
