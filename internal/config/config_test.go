package config

import (
	"fmt"
	"os"
	"path/filepath"
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
	rep, err := f.Run()
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
	}
	for i, c := range cases {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildErrorsSurface(t *testing.T) {
	f, err := Parse([]byte(`{
	  "config": {"scheme": "NOPE"},
	  "apps": [{"app": 0, "loadFrac": 0.1}],
	  "phases": {"measure": 100}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Build(); err == nil {
		t.Fatal("bad scheme accepted at build")
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
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no packets")
	}
}

// TestProbeScenario pins testdata/sim/probe.json, the scenario the CI
// telemetry, fault-injection and obs-snapshot smokes share: under the CI
// fault spec at seed 1 every measured packet is delivered and none is lost.
func TestProbeScenario(t *testing.T) {
	f, err := Load("../../testdata/sim/probe.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Config.Faults, err = rair.ParseFaultSpec("drop=0.002,corrupt=0.002,leak=0.001,stall=0.0005,stalllen=6,reconcile=256")
	if err != nil {
		t.Fatal(err)
	}
	f.Config.CheckInvariants = true
	rep, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets != 61687 || rep.Faults.LostFlits != 0 {
		t.Fatalf("probe delivered %d packets with %d flits lost, want 61687 and 0", rep.Packets, rep.Faults.LostFlits)
	}
}
