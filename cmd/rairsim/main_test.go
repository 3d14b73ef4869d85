package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"rair"
)

// writeConfig puts a small halves scenario with its own trace stride and
// worker count into a temp file.
func writeConfig(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sim.json")
	doc := `{
	  "config": {"layout": "halves", "scheme": "RA_RAIR", "seed": 3,
	             "telemetryTraceEvery": 7, "workers": 3},
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
	record := filepath.Join(t.TempDir(), "record.json")
	f, _, err := configure([]string{"-f", path, "-record", record})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Config.Telemetry || f.Config.TelemetryTraceEvery != 7 || f.Config.Workers != 3 {
		t.Errorf("-record alone: telemetry %v, trace %d, workers %d, want on and the file's 7 and 3",
			f.Config.Telemetry, f.Config.TelemetryTraceEvery, f.Config.Workers)
	}
	f, _, err = configure([]string{"-f", path, "-record", record, "-telemetry-trace", "0", "-workers", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if f.Config.TelemetryTraceEvery != 0 || f.Config.Workers != 1 {
		t.Errorf("explicit flags: trace %d, workers %d, want 0 and 1",
			f.Config.TelemetryTraceEvery, f.Config.Workers)
	}
}

// The record rairsim writes is the run record: it decodes into rair.Report
// with no field left over, carries the text report's packet count and
// balanced attribution books, and its engine section; the Chrome trace lands
// beside it.
func TestRecordRoundTrip(t *testing.T) {
	path := writeConfig(t)
	record := filepath.Join(t.TempDir(), "record.json")
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	err = run([]string{"-f", path, "-record", record})
	os.Stdout = stdout
	w.Close()
	var text bytes.Buffer
	text.ReadFrom(r)
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	var rep rair.Report
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Schema != 2 || rep.Results == nil {
		t.Fatalf("schema %d, results %v", rep.Schema, rep.Results)
	}
	if !strings.Contains(text.String(), rep.String()) {
		t.Fatalf("text report\n%s\ndoes not carry the record's results\n%s", text.String(), rep.String())
	}
	if rep.Attribution == nil {
		t.Fatal("record has no attribution section")
	}
	if err := rep.Attribution.Conservation(); err != nil {
		t.Fatal(err)
	}
	if rep.Engine == nil || rep.Engine.Workers != 3 {
		t.Fatalf("engine section %+v, want one for the file's 3 workers", rep.Engine)
	}
	if _, err := os.Stat(strings.TrimSuffix(record, ".json") + ".trace.json"); err != nil {
		t.Fatalf("no Chrome trace beside the record: %v", err)
	}
}

// Fault injection is gone: a simulation file that still holds a "faults"
// block is an error from run, and -faults is an unknown flag, so rairsim
// exits 2 with the usage text. Neither panics.
func TestFaultInjectionIsGone(t *testing.T) {
	if args := os.Getenv("RAIRSIM_ARGS"); args != "" {
		os.Args = append([]string{"rairsim"}, strings.Split(args, "\n")...)
		main()
		return
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	doc := `{"config": {"faults": {"dropProb": 0.01}}, "apps": [{"app": 0, "loadFrac": 0.1}], "phases": {"measure": 100}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-f", path}); err == nil || !strings.Contains(err.Error(), `"faults"`) {
		t.Errorf("a file with a faults block returned %v, want an error naming it", err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestFaultInjectionIsGone$")
	cmd.Env = append(os.Environ(), "RAIRSIM_ARGS=-f\n"+writeConfig(t)+"\n-faults\ndrop=0.001")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rairsim -faults: %v, want exit status 2\n%s", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "flag provided but not defined: -faults") || strings.Contains(msg, "panic") {
		t.Fatalf("rairsim -faults stderr:\n%s", msg)
	}
}
