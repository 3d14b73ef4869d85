package sweep_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rair"
	"rair/internal/sweep"
)

// FuzzCheckStore feeds arbitrary CSV text to the checker as a record of
// every guarded experiment, and to the differ against the reference
// fixtures: whatever a store holds, the outcome is findings and mismatches,
// never a panic.
func FuzzCheckStore(f *testing.F) {
	for _, r := range goodRecords() {
		f.Add(r.CSV)
	}
	f.Add("scheme,p,APL App0,APL App1\nRO_RR\n")
	f.Add("load_frac,apl,throughput\nNaN,Inf,-Inf\n0x1p-2,1e400,\n")
	guards := rair.Guards()
	f.Fuzz(func(t *testing.T, csv string) {
		recs := goodRecords()
		for i := range recs {
			recs[i].CSV = csv
		}
		rep := sweep.CheckStore(recs, guards)
		if len(rep.Findings) != 21 {
			t.Fatalf("%d findings, want one per guard", len(rep.Findings))
		}
		_ = rep.String()
		_ = sweep.DiffStores(goodRecords(), recs).String()
		if d := sweep.DiffStores(recs, recs); d.MaxDelta() != 0 {
			t.Fatalf("a store differs from itself: %s", d)
		}
	})
}

// FuzzLoadStore writes arbitrary bytes as a store file: loading either
// fails or yields records, recovery truncates the file to exactly the
// records it returns, and a recovered store then loads clean.
func FuzzLoadStore(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/sweep/golden_quick.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		f.Add(line)
	}
	f.Add(golden[:len(golden)/2]) // a sweep killed mid-record
	f.Add([]byte("{\"key\":\"\"}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, lerr := sweep.LoadStore(path)
		recs, dropped, err := sweep.RecoverStore(path)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		if lerr == nil && (dropped != 0 || !reflect.DeepEqual(loaded, recs)) {
			t.Fatalf("a store that loads clean lost %d bytes or changed in recovery", dropped)
		}
		again, err := sweep.LoadStore(path)
		if err != nil || !reflect.DeepEqual(again, recs) {
			t.Fatalf("recovered store does not load back: %v", err)
		}
	})
}

// FuzzLoadManifest writes arbitrary bytes as a manifest file: loading
// either fails or yields a manifest that validates or not without a panic,
// and one that loads writes back to a file expanding to the same jobs.
func FuzzLoadManifest(f *testing.F) {
	for _, name := range []string{"quick", "nightly"} {
		raw, err := os.ReadFile("../../testdata/sweep/" + name + ".json")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	// Manifests where one experiment overrides the default seed list and
	// the next inherits it.
	f.Add([]byte(`{"name":"collective-smoke","quick":true,"seeds":[1],"experiments":[{"name":"coll-synth","seeds":[1,2,3]},{"name":"coll-allreduce"}]}`))
	f.Add([]byte(`{"name":"chiplet-smoke","quick":true,"seeds":[1],"experiments":[{"name":"chiplet-synth","seeds":[1,2,3]},{"name":"mesh64-scale"}]}`))
	f.Add([]byte(`{"name":"x","quick":true,"seeds":[0],"experiments":[{"name":"fig9","seeds":[]}]} {}`))
	var known []string
	for _, e := range rair.Experiments() {
		known = append(known, e.Name)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "manifest.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := sweep.LoadManifest(path)
		if err != nil {
			return
		}
		verr := m.Validate(known)
		again := filepath.Join(dir, "again.json")
		if err := sweep.WriteManifest(m, again); err != nil {
			t.Fatal(err)
		}
		back, err := sweep.LoadManifest(again)
		if err != nil {
			t.Fatalf("a written manifest does not load back: %v", err)
		}
		if (back.Validate(known) == nil) != (verr == nil) || !reflect.DeepEqual(back.Expand(), m.Expand()) {
			t.Fatalf("manifest changed in a write/load round trip:\n%+v\n%+v", m, back)
		}
	})
}
