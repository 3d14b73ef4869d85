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
