package rair

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rair/internal/harness"
)

var updateGoldens = flag.Bool("update", false, "rewrite the experiment goldens under testdata/experiments/")

// TestExperimentGoldens pins every registered experiment byte-for-byte: text
// and CSV at a reduced fixed setting (seed 1, quick axes) against
// testdata/experiments/<name>.txt|.csv. A refactor of the drivers, the table
// writers or the scenarios must leave every file untouched; a deliberate
// behaviour change regenerates them with
//
//	go test -run TestExperimentGoldens -update .
//
// and reviews the diff.
func TestExperimentGoldens(t *testing.T) {
	dur := harness.Durations{Warmup: 200, Measure: 800, Drain: 3000}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			text, csv, err := runExperiment(e.Name, dur, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			for ext, got := range map[string]string{".txt": text, ".csv": csv} {
				path := filepath.Join("testdata", "experiments", e.Name+ext)
				if *updateGoldens {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing golden (regenerate with -update): %v", err)
				}
				if got != string(want) {
					t.Errorf("%s drifted (regenerate with -update if intended)\n--- got\n%s--- want\n%s", path, got, want)
				}
			}
		})
	}
}
