package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeConfig puts a small halves scenario with its own telemetry settings
// into a temp file.
func writeConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim.json")
	doc := `{
	  "config": {"layout": "halves", "scheme": "RA_RAIR", "seed": 3,
	             "telemetryWindow": 512, "telemetryTraceEvery": 7},
	  "apps": [{"app": 0, "loadFrac": 0.3, "globalFrac": 0.5}, {"app": 1, "loadFrac": 0.3}],
	  "phases": {"warmup": 200, "measure": 1000, "drain": 2000}
	}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A flag left at its default must not reset what the file says.
func TestFlagsOverrideFileOnlyWhenGiven(t *testing.T) {
	path := writeConfig(t)
	f, _, err := configure([]string{"-f", path, "-telemetry"})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Config.Telemetry || f.Config.TelemetryWindow != 512 || f.Config.TelemetryTraceEvery != 7 {
		t.Errorf("-telemetry alone: window %d, trace %d, want the file's 512 and 7",
			f.Config.TelemetryWindow, f.Config.TelemetryTraceEvery)
	}
	f, _, err = configure([]string{"-f", path, "-telemetry-window", "128", "-telemetry-trace", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Config.TelemetryWindow != 128 || f.Config.TelemetryTraceEvery != 0 {
		t.Errorf("explicit flags: window %d, trace %d, want 128 and 0",
			f.Config.TelemetryWindow, f.Config.TelemetryTraceEvery)
	}
}

// A flit that exhausted its retries travels on damaged and its packet is
// discarded at the destination, which no invariant forbids, so
// -check-invariants itself has to fail a run that lost one. The spec loses
// exactly one flit at this seed.
func TestLostFlitsFailCheckedRun(t *testing.T) {
	path := writeConfig(t)
	err := run([]string{"-f", path, "-faults", "drop=0.003,retries=1", "-check-invariants"})
	if err == nil || !strings.Contains(err.Error(), "lost 1 flits permanently") {
		t.Fatalf("lossy checked run returned %v, want a lost-flits error", err)
	}
	if err := run([]string{"-f", path, "-faults", "drop=0.003", "-check-invariants"}); err != nil {
		t.Fatalf("recoverable faults failed the run: %v", err)
	}
}
