package config

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rair"
)

const sample = `{
  "config": {"layout": "halves", "scheme": "RA_RAIR", "seed": 7},
  "apps": [
    {"app": 0, "loadFrac": 0.1, "globalFrac": 0.5},
    {"app": 1, "loadFrac": 0.5}
  ],
  "phases": {"warmup": 200, "measure": 1000, "drain": 3000}
}`

func TestParseAndRun(t *testing.T) {
	f, err := Parse([]byte(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.Config.Layout != "halves" || len(f.Apps) != 2 {
		t.Fatalf("parsed %+v", f)
	}
	rep, err := run(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no packets measured")
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		`{`, // invalid JSON
		`{"config": {}, "phases": {"measure": 100}}`, // no traffic
		`{"config": {}, "apps": [{"app":0,"loadFrac":0.1}], "parsec": true,
		  "phases": {"measure": 100}}`, // both traffic kinds
		`{"config": {}, "apps": [{"app":0,"loadFrac":0.1}], "phases": {"measure": 0}}`, // no window
		`{"config": {}, "apps": [{"app":0,"loadFrac":0.1}], "typo": 1,
		  "phases": {"measure": 100}}`, // unknown field
		sample + sample,  // a second document
		sample + ` oops`, // trailing garbage
		// Observation keys that "telemetry" covers.
		`{"config": {"telemetryWindow": 512}, "apps": [{"app":0,"loadFrac":0.1}], "phases": {"measure": 100}}`,
		`{"config": {"attribution": true}, "apps": [{"app":0,"loadFrac":0.1}], "phases": {"measure": 100}}`,
		`{"config": {"profile": true}, "apps": [{"app":0,"loadFrac":0.1}], "phases": {"measure": 100}}`,
		// The fault-injection block is gone with the fault model.
		`{"config": {"faults": {"dropProb": 0.01}}, "apps": [{"app":0,"loadFrac":0.1}], "phases": {"measure": 100}}`,
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// The file schema is the public types themselves (no mirror structs), so
// every key of an app, the phases and a custom-layout rectangle has to land in its field under the spelling files use today.
func TestParseEveryKey(t *testing.T) {
	f, err := Parse([]byte(`{
	  "config": {"layout": "custom",
	             "rects": [{"x0": 0, "y0": 0, "x1": 8, "y1": 4}, {"x0": 0, "y0": 4, "x1": 8, "y1": 8}]},
	  "apps": [{"app": 1, "loadFrac": 0.25, "globalFrac": 0.5, "globalPattern": "TP", "mcFrac": 0.125},
	           {"app": 0, "packetRate": 0.01}],
	  "phases": {"warmup": 11, "measure": 22, "drain": 33}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	wantRects := []rair.Rect{{X0: 0, Y0: 0, X1: 8, Y1: 4}, {X0: 0, Y0: 4, X1: 8, Y1: 8}}
	if !slices.Equal(f.Config.Rects, wantRects) {
		t.Errorf("rects %+v, want %+v", f.Config.Rects, wantRects)
	}
	wantApps := []rair.AppSpec{
		{App: 1, LoadFrac: 0.25, GlobalFrac: 0.5, GlobalPattern: "TP", MCFrac: 0.125},
		{App: 0, PacketRate: 0.01},
	}
	if !slices.Equal(f.Apps, wantApps) {
		t.Errorf("apps %+v, want %+v", f.Apps, wantApps)
	}
	if want := (rair.Phases{Warmup: 11, Measure: 22, Drain: 33}); f.Phases != want {
		t.Errorf("phases %+v, want %+v", f.Phases, want)
	}
	if _, err := f.Build(); err != nil {
		t.Errorf("build: %v", err)
	}
}

func TestBuildErrorsSurface(t *testing.T) {
	for name, file := range map[string]string{
		"bad scheme": `{
		  "config": {"scheme": "NOPE"},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// Used to panic in traffic.PatternByName.
		"bad global pattern": `{
		  "apps": [{"app": 0, "loadFrac": 0.1, "globalFrac": 0.2, "globalPattern": "XX"}],
		  "phases": {"measure": 100}
		}`,
		// Used to panic in region.SixGrid: the third column block is
		// empty on meshes 2 and 4 columns wide.
		"sixgrid 2x2": `{
		  "config": {"meshW": 2, "meshH": 2, "layout": "sixgrid"},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// Used to run RA_RAIR at the default width of 0.2.
		"negative delta": `{
		  "config": {"scheme": "RA_RAIR", "delta": -0.5},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// Used to run, letting a younger batch outrank an older one.
		"rank out of range": `{
		  "config": {"scheme": "RO_Rank", "ranks": [0, 9]},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"empty ranks": `{
		  "config": {"scheme": "RO_Rank", "ranks": []},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"sixgrid 4x2": `{
		  "config": {"meshW": 4, "meshH": 2, "layout": "sixgrid"},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// Both used to die allocating every VC buffer or link ring.
		"huge depth": `{
		  "config": {"depth": 100000000},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"huge link latency": `{
		  "config": {"linkLatency": 100000000},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// The next five used to run, ignoring the setting: RAIR_VA at
		// Δ 0.2, RO_RR without ranks, the Table 1 depth, VCs and latency.
		"delta on RAIR_VA": `{
		  "config": {"scheme": "RAIR_VA", "delta": 0.5},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"ranks on RO_RR": `{
		  "config": {"scheme": "RO_RR", "ranks": [1, 0]},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"negative depth": `{
		  "config": {"depth": -3},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"negative adaptive VCs": `{
		  "config": {"adaptiveVCs": -2},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		"negative link latency": `{
		  "config": {"linkLatency": -1},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`,
		// Used to calibrate to a zero packet rate: the default layout is
		// one region over the whole mesh, so global traffic has nowhere
		// to go.
		"global traffic without a second region": `{
		  "apps": [{"app": 0, "loadFrac": 0.5, "globalFrac": 1}],
		  "phases": {"measure": 100}
		}`,
		// Used to run without an adversary.
		"negative adversary rate": `{
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "adversaryFlitRate": -0.3,
		  "phases": {"measure": 100}
		}`,
		// Used to generate no packets: quadrant 0 of a 3x3 mesh is one
		// node, so the app's whole (intra-region) load had no destination.
		"one-node region": `{
		  "config": {"meshW": 3, "meshH": 3, "layout": "quadrants"},
		  "apps": [{"app": 0, "loadFrac": 0.3}],
		  "phases": {"measure": 100}
		}`,
	} {
		f, err := Parse([]byte(file))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := f.Build(); err == nil {
			t.Errorf("%s accepted at build", name)
		}
	}
}

// A mesh the simulator cannot build must come back from Build as an error,
// never as a panic out of topology.NewMesh: too small, negative, and
// W²·H ≥ 2³² (including dimensions whose product overflows 64 bits).
func TestBuildRejectsMeshDimensions(t *testing.T) {
	cases := []struct {
		w, h int
		want string
	}{
		{1, 8, "too small"},
		{8, 1, "too small"},
		{-4, 8, "too small"},
		{8, -4, "too small"},
		{1626, 1626, "too large"}, // 1626³ ≥ 2³²
		{65536, 2, "too large"},
		{2, 1 << 30, "too large"},
		{1 << 40, 1 << 40, "too large"},
	}
	for _, c := range cases {
		f, err := Parse([]byte(fmt.Sprintf(`{
		  "config": {"meshW": %d, "meshH": %d},
		  "apps": [{"app": 0, "loadFrac": 0.1}],
		  "phases": {"measure": 100}
		}`, c.w, c.h)))
		if err != nil {
			t.Fatalf("%dx%d: parse: %v", c.w, c.h, err)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%dx%d: Build panicked: %v", c.w, c.h, p)
				}
			}()
			if _, err := f.Build(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%dx%d: Build error %v, want one containing %q", c.w, c.h, err, c.want)
			}
		}()
	}
}

func TestLoadFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sim.json")
	if err := os.WriteFile(path, []byte(sample), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Phases.Measure != 1000 {
		t.Fatalf("phases %+v", f.Phases)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParsecFile(t *testing.T) {
	f, err := Parse([]byte(`{
	  "config": {"layout": "quadrants", "scheme": "RA_RAIR"},
	  "parsec": true,
	  "adversaryFlitRate": 0.1,
	  "phases": {"warmup": 100, "measure": 500, "drain": 2000}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no packets")
	}
}

// parsecAdversary runs two traffic sources that number their packets
// independently: the memory system and the adversary's generator.
const parsecAdversary = `{"config":{"layout":"quadrants","scheme":"RA_RAIR","seed":1},"parsec":true,"adversaryFlitRate":0.3,"phases":{"warmup":500,"measure":2000,"drain":4000}}`

// TestParsecAdversaryInvariants: the invariant checker stays clean when two
// sources share a run. It used to report the adversary's packet 29 as the
// memory system's packet 29 with a hop count that went backwards.
func TestParsecAdversaryInvariants(t *testing.T) {
	f, err := Parse([]byte(parsecAdversary))
	if err != nil {
		t.Fatal(err)
	}
	f.Config.CheckInvariants = true
	rep, err := run(f)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no packets")
	}
}

// TestProbeScenario pins testdata/sim/probe.json, the scenario the CI
// telemetry and run-record smokes share, to testdata/probe.txt: the text
// report rairsim prints for it, under the invariant checker, which must
// stay clean (RAIR_UPDATE_GOLDENS=1 rewrites the file).
func TestProbeScenario(t *testing.T) {
	f, err := Load("../../testdata/sim/probe.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Config.CheckInvariants = true
	rep, err := run(f)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.String()
	const path = "testdata/probe.txt"
	if os.Getenv("RAIR_UPDATE_GOLDENS") == "1" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with RAIR_UPDATE_GOLDENS=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("%s drifted (regenerate with RAIR_UPDATE_GOLDENS=1 if intended)\ngot\n%swant\n%s", path, got, want)
	}
}

// run builds and executes a file's simulation, as rairsim does.
func run(f *File) (*rair.Report, error) {
	sim, err := f.Build()
	if err != nil {
		return nil, err
	}
	return sim.Run(f.Phases)
}
