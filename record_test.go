package rair

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// observedSim is a small two-region RAIR run with cross-region traffic.
func observedSim(t *testing.T, cfg Config) *Simulation {
	t.Helper()
	cfg.Layout, cfg.Scheme, cfg.Seed = LayoutHalves, "RA_RAIR", 5
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for app := range 2 {
		if err := sim.AddApp(AppSpec{App: app, LoadFrac: 0.4, GlobalFrac: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	return sim
}

var observedPhases = Phases{Warmup: 200, Measure: 2000, Drain: 5000}

// TestTelemetryObserverOnly: switching every observation section on through
// the facade (and sharding the engine) leaves the results and the text
// report untouched, and the sections appear only when switched on.
func TestTelemetryObserverOnly(t *testing.T) {
	off, err := observedSim(t, Config{}).Run(observedPhases)
	if err != nil {
		t.Fatal(err)
	}
	on, err := observedSim(t, Config{Telemetry: true, Workers: 2}).Run(observedPhases)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(off.Results, on.Results) || off.String() != on.String() {
		t.Fatalf("telemetry moved the results:\noff %s\non  %s", off, on)
	}
	if off.Telemetry != nil || off.Attribution != nil || off.Engine != nil {
		t.Fatal("observation sections present with telemetry off")
	}
	if on.Telemetry == nil || len(on.Telemetry.Routers) != 64 || on.Attribution == nil || on.Engine == nil {
		t.Fatal("telemetry on, but a section is missing")
	}
	if err := on.Attribution.Conservation(); err != nil {
		t.Fatal(err)
	}
	var js bytes.Buffer
	if err := on.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Report
	dec := json.NewDecoder(&js)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&back); err != nil || !reflect.DeepEqual(back.Results, on.Results) {
		t.Fatalf("record round trip: %v, results %+v", err, back.Results)
	}
}
