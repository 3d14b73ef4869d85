package rair

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rair/internal/obs"
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

// TestRecordSchema pins the record's layout at ReportSchema 3: Report's
// WriteJSON is obs.WriteJSON's bytes, and the engine section carries the
// barrier waits without a histogram and the shards' visit counts without
// derived quiescence ratios.
func TestRecordSchema(t *testing.T) {
	rep, err := observedSim(t, Config{Telemetry: true, Workers: 2}).Run(observedPhases)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := rep.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteJSON(&want, rep); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("Report.WriteJSON wrote\n%s\nwant obs.WriteJSON's\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), `"schema": 3`) {
		t.Fatalf("record lacks schema 3:\n%.200s", got.String())
	}
	var doc struct {
		Engine struct {
			Shards  []map[string]json.RawMessage `json:"shards"`
			Barrier []map[string]json.RawMessage `json:"barrier"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(got.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Engine.Shards) != 2 || len(doc.Engine.Barrier) == 0 {
		t.Fatalf("engine section has %d shards and %d barriers, want 2 and some", len(doc.Engine.Shards), len(doc.Engine.Barrier))
	}
	for _, bp := range doc.Engine.Barrier {
		if _, ok := bp["hist"]; ok {
			t.Fatal("engine.barrier carries a hist key")
		}
	}
	for _, sh := range doc.Engine.Shards {
		for _, k := range []string{"routerQuiescence", "niQuiescence"} {
			if _, ok := sh[k]; ok {
				t.Fatalf("engine.shards carries %s", k)
			}
		}
	}
}
