package rair

import (
	"testing"

	"rair/internal/harness"
)

// BenchmarkExperiment regenerates every registered experiment at
// benchmark-sized durations and quick axes, one sub-benchmark each
// (-bench 'Experiment/fig9$'); rairbench runs the same registry at the
// paper's durations, and the experiment goldens pin what each one prints.
func BenchmarkExperiment(b *testing.B) {
	dur := harness.Durations{Warmup: 500, Measure: 3000, Drain: 5000}
	for _, e := range Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := runExperiment(e.Name, dur, true, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
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
