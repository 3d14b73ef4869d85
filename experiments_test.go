package rair

import (
	"context"
	"os"
	"path/filepath"
	"slices"
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
// testdata/experiments/<name>.txt|.csv. A refactor of the drivers, the table
// writers or the scenarios must leave every file untouched; a deliberate
// behaviour change regenerates them with
//
//	RAIR_UPDATE_GOLDENS=1 go test ./...
//
// and reviews the diff. These windows are shorter than the guards were
// calibrated for, so no verdict is taken here: TestGoldenQuickStore judges
// the guards at quick durations.
func TestExperimentGoldens(t *testing.T) {
	dur := harness.Durations{Warmup: 200, Measure: 800, Drain: 3000}
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			text, csv, err := runExperiment(e.Name, dur, true, 1)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "experiments", e.Name)
			if want, drifted := golden(t, path+".csv", csv); drifted {
				rec := sweep.Record{Key: e.Name, Experiment: e.Name, Seed: 1, Quick: true, Text: text, CSV: csv}
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
}

// TestFacadeMatchesFigure ties the facade to a figure: the six-application
// scenario built through New and AddApp runs the simulation of the fig14
// registry row under each of its schemes, to the same packet count and
// bit-equal per-application APLs.
func TestFacadeMatchesFigure(t *testing.T) {
	dur := harness.Durations{Warmup: 200, Measure: 800, Drain: 3000}
	e := experiments["fig14"]
	fig := harness.Axis(e.schemes, e.points(true), dur, 1)[0]
	for ri, scheme := range fig.Labels {
		cfg := Config{Layout: LayoutSixGrid, Scheme: scheme}
		if scheme == "RO_Rank" {
			cfg.Ranks = harness.SixAppRanks()
		}
		sim, err := New(cfg)
		for a := 0; err == nil && a < len(harness.SixAppLoads); a++ {
			err = sim.AddApp(AppSpec{App: a, LoadFrac: harness.SixAppLoads[a], GlobalFrac: 0.2, MCFrac: 0.05})
		}
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sim.Run(dur)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := rep.Results.Packets, fig.Cols[ri].Packets(); got != want {
			t.Errorf("%s: facade delivered %d packets, the figure %d", scheme, got, want)
		}
		for a, want := range fig.APL[ri] {
			if got := rep.Results.PerApp[a]; got != want {
				t.Errorf("%s: app %d APL %v through the facade, %v in the figure", scheme, a, got, want)
			}
		}
	}
}

// awaitingClaims lists the experiments that reproduce a paper claim which
// is not yet written as a guard (ROADMAP item 9). Every other experiment
// states its claim as a guard, or goes.
var awaitingClaims = []string{"delta", "fig10", "fig15", "scale-cores", "scale-regions", "vcsplit"}

// TestEveryExperimentIsGuarded: every registered experiment has a guard or
// waits in awaitingClaims, and the list is exact: it names registered
// experiments only, and none that has a guard.
func TestEveryExperimentIsGuarded(t *testing.T) {
	for _, n := range names() {
		switch guarded, awaiting := len(experiments[n].guards) > 0, slices.Contains(awaitingClaims, n); {
		case !guarded && !awaiting:
			t.Errorf("experiment %s states no claim: give it a guard or delete it", n)
		case guarded && awaiting:
			t.Errorf("experiment %s has a guard: remove it from awaitingClaims", n)
		}
	}
	for _, n := range awaitingClaims {
		if _, ok := experiments[n]; !ok {
			t.Errorf("awaitingClaims names %s, which is not an experiment", n)
		}
	}
}

// TestManifestsValidate: every manifest under testdata/sweep names only
// registered experiments, so a deleted experiment fails here rather than
// in the sweep that runs the manifest.
func TestManifestsValidate(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "sweep", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no manifests under testdata/sweep: %v", err)
	}
	for _, path := range paths {
		m, err := sweep.LoadManifest(path)
		if err == nil {
			err = m.Validate(names())
		}
		if err != nil {
			t.Error(err)
		}
	}
}

// TestGoldenQuickStore is the one guard verdict: it owns
// testdata/sweep/golden_quick.jsonl, every guarded experiment at seeds 1-5
// and quick durations, and its verdict file testdata/sweep/guards.txt. Every
// guard finding on the store must pass except recordedFailures, which must
// still fail (GuardVerdict, rairsweep check's verdict too). The shape-guard
// CI job diffs a fresh sweep of testdata/sweep/quick.json against the store
// at zero tolerance, and a verdict is a pure function of the CSVs, so
// together they judge the PR's code. Under RAIR_UPDATE_GOLDENS=1 it first
// reruns the manifest into the store through RunJob, as rairsweep run does
// (minutes, not milliseconds).
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
	rep := sweep.CheckStore(recs, Guards())
	const verdicts = "testdata/sweep/guards.txt"
	got := rep.String() + "\n"
	if want, drifted := golden(t, verdicts, got); drifted {
		t.Errorf("%s drifted (regenerate with RAIR_UPDATE_GOLDENS=1 if intended)\n--- got\n%s--- want\n%s", verdicts, got, want)
	}
	if len(rep.Missing) > 0 {
		t.Errorf("%s lacks guarded experiments %v", path, rep.Missing)
	}
	known, problems := GuardVerdict(rep)
	for _, p := range problems {
		t.Error(p)
	}
	recorded := 0
	for _, seeds := range recordedFailures {
		recorded += len(seeds)
	}
	if len(known) != recorded {
		t.Errorf("%s holds %d of the %d recorded failures: %v", path, len(known), recorded, known)
	}
}
