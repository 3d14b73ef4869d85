package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"rair/internal/sweep"
)

func TestManifestSubcommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	if err := cmdManifest([]string{"-out", path, "-seeds", "1, 2,3", "-quick"}); err != nil {
		t.Fatal(err)
	}
	m, err := sweep.LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(knownExperiments()); err != nil {
		t.Fatal(err)
	}
	want := sweep.NewManifest("quick-reproduction", knownExperiments(), []uint64{1, 2, 3}, true)
	if !reflect.DeepEqual(m, want) {
		t.Errorf("manifest = %+v, want %+v", m, want)
	}

	if err := cmdManifest([]string{"-out", path, "-experiment", "fig14"}); err != nil {
		t.Fatal(err)
	}
	if m, err = sweep.LoadManifest(path); err != nil {
		t.Fatal(err)
	}
	if want = sweep.NewManifest("fig14", []string{"fig14"}, []uint64{1}, false); !reflect.DeepEqual(m, want) {
		t.Errorf("single-experiment manifest = %+v, want %+v", m, want)
	}
}

func TestManifestSubcommandRejects(t *testing.T) {
	for _, args := range [][]string{
		{"-seeds", ""},
		{"-seeds", "0"},
		{"-seeds", "x"},
		{"-experiment", "no-such-experiment"},
	} {
		path := filepath.Join(t.TempDir(), "m.json")
		if err := cmdManifest(append([]string{"-out", path}, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
		if _, err := sweep.LoadManifest(path); err == nil {
			t.Errorf("%v left a manifest behind", args)
		}
	}
}

// TestCheckVerdict: check passes the committed quick store, whose only
// failures are the recorded ones, and fails a store where a recorded
// failure passes or another finding fails. The bad stores relabel fig17's
// seed-1 record (which passes every guard) as seed 2, its seed-2 record
// (which fails the recorded guard) as seed 1, and its seed-2 record as run
// at full durations, where no failure is recorded; an empty store fails
// too.
func TestCheckVerdict(t *testing.T) {
	const golden = "../../testdata/sweep/golden_quick.jsonl"
	if err := cmdCheck([]string{"-store", golden}); err != nil {
		t.Fatalf("the committed store: %v", err)
	}
	recs, err := sweep.LoadStore(golden)
	if err != nil {
		t.Fatal(err)
	}
	fig17 := map[uint64]sweep.Record{}
	for _, r := range recs {
		if r.Experiment == "fig17" {
			fig17[r.Seed] = r
		}
	}
	for _, tc := range []struct {
		name       string
		from, seed uint64
		quick      bool
	}{
		{"recorded passes", 1, 2, true},
		{"another fails", 2, 1, true},
		{"fails at full durations", 2, 2, false},
		{"empty store", 0, 0, true},
	} {
		r := fig17[tc.from]
		r.Seed, r.Quick = tc.seed, tc.quick
		path := filepath.Join(t.TempDir(), "store.jsonl")
		store, err := sweep.CreateStore(path, true)
		if err != nil {
			t.Fatal(err)
		}
		if tc.from != 0 {
			if err := store.Append(&r); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if err := cmdCheck([]string{"-store", path}); err == nil {
			t.Errorf("%s: check passed", tc.name)
		} else {
			t.Logf("%s: %v", tc.name, err)
		}
	}
}
