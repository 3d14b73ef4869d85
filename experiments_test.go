package rair

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rair/internal/harness"
	"rair/internal/sweep"
)

// updateGoldens is the module's one regeneration switch: under
// RAIR_UPDATE_GOLDENS=1, `go test ./...` rewrites every golden file instead
// of comparing against it.
func updateGoldens() bool { return os.Getenv("RAIR_UPDATE_GOLDENS") == "1" }

// golden compares got with the committed file at path, or rewrites the file
// under the switch. It returns the committed content and whether got drifted
// from it.
func golden(t *testing.T, path, got string) (want string, drifted bool) {
	t.Helper()
	if updateGoldens() {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return got, false
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with RAIR_UPDATE_GOLDENS=1): %v", err)
	}
	return string(b), got != string(b)
}

// TestExperimentGoldens pins every registered experiment byte-for-byte: text
// and CSV at a reduced fixed setting (seed 1, quick axes) against
// testdata/experiments/<name>.txt|.csv, and the verdict and slack of every
// shape guard on those CSVs against testdata/experiments/guards.txt. A
// refactor of the drivers, the table writers or the scenarios must leave
// every file untouched; a deliberate behaviour change regenerates them with
//
//	RAIR_UPDATE_GOLDENS=1 go test ./...
//
// and reviews the diff, where guards.txt shows how each guard's slack moved.
// Guards calibrated at quick durations may fail at these shorter ones; such
// a failure is recorded in guards.txt, not loosened.
func TestExperimentGoldens(t *testing.T) {
	dur := harness.Durations{Warmup: 200, Measure: 800, Drain: 3000}
	var recs []sweep.Record
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			text, csv, err := runExperiment(e.Name, dur, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			rec := sweep.Record{Key: e.Name, Experiment: e.Name, Seed: 1, Quick: true, Text: text, CSV: csv}
			recs = append(recs, rec)
			path := filepath.Join("testdata", "experiments", e.Name)
			if want, drifted := golden(t, path+".csv", csv); drifted {
				old := rec
				old.CSV = want
				t.Errorf("%s.csv drifted (regenerate with RAIR_UPDATE_GOLDENS=1 if intended):\n%s",
					path, sweep.DiffStores([]sweep.Record{old}, []sweep.Record{rec}))
			}
			if want, drifted := golden(t, path+".txt", text); drifted {
				gl, wl := strings.Split(text, "\n"), strings.Split(want, "\n")
				i := 0
				for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
					i++
				}
				t.Errorf("%s.txt drifts at line %d (regenerate with RAIR_UPDATE_GOLDENS=1 if intended)", path, i+1)
			}
		})
	}
	path := filepath.Join("testdata", "experiments", "guards.txt")
	got := sweep.CheckStore(recs, Guards()).String() + "\n"
	if want, drifted := golden(t, path, got); drifted {
		t.Errorf("%s drifted (regenerate with RAIR_UPDATE_GOLDENS=1 if intended)\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGoldenQuickStore owns testdata/sweep/golden_quick.jsonl, the store the
// shape-guard CI job diffs a fresh quick sweep against: every guard of an
// experiment it holds must pass on it. Under RAIR_UPDATE_GOLDENS=1 it first
// reruns testdata/sweep/quick.json into the store through RunJob, as
// rairsweep run does (minutes, not milliseconds).
func TestGoldenQuickStore(t *testing.T) {
	const path = "testdata/sweep/golden_quick.jsonl"
	if updateGoldens() {
		m, err := sweep.LoadManifest("testdata/sweep/quick.json")
		if err != nil {
			t.Fatal(err)
		}
		store, err := sweep.CreateStore(path, true)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sweep.Execute(context.Background(), m, store, nil, RunJob, sweep.Options{Workers: 2})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	recs, err := sweep.LoadStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep := sweep.CheckStore(recs, Guards()); !rep.OK() {
		t.Fatalf("%s fails its guards:\n%s", path, rep)
	}
}
