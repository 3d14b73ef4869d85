package network

import (
	"bytes"
	"encoding/json"
	"testing"

	"rair/internal/msg"
	"rair/internal/obs"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// telemetryRun drives a deterministic loaded RAIR mesh and returns the
// delivery trace (packet id + ejection cycle in callback order) plus the
// collector (nil when telemetry is off).
func telemetryRun(t *testing.T, workers int, tel *telemetry.Collector) []uint64 {
	t.Helper()
	regions := region.Quadrants(topology.NewMesh(8, 8))
	var deliveries []uint64
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:     routing.LocalSelector{},
		Policy:  rairSpec,
		OnEject: func(p *msg.Packet, now int64) {
			deliveries = append(deliveries, p.ID, uint64(now))
		},
		Workers:   workers,
		Telemetry: tel,
	})
	defer n.Close()
	rng := sim.NewRNG(7)
	var id uint64
	var c int64
	for ; c < 3000; c++ {
		inject(n, regions, rng, &id, c)
		n.Tick(c)
	}
	for ; !n.Drained() && c < 6000; c++ {
		n.Tick(c)
	}
	n.CheckDrained()
	return deliveries
}

// TestTelemetryDeterminism is the shard-safety contract: the delivery trace
// must be bit-identical with telemetry off and on, at 1, 2 and 4 workers,
// and the telemetry report itself must not depend on the worker count.
func TestTelemetryDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base := telemetryRun(t, 0, nil)
	if len(base) == 0 {
		t.Fatal("no deliveries")
	}
	var baseReport []byte
	for _, workers := range []int{1, 2, 4} {
		tel := telemetry.NewCollector(telemetry.Config{Window: 128, TraceEvery: 64})
		got := telemetryRun(t, workers, tel)
		if len(got) != len(base) {
			t.Fatalf("workers=%d telemetry on: %d delivery records, want %d", workers, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d telemetry on: delivery trace diverged at record %d", workers, i)
			}
		}
		var buf bytes.Buffer
		if err := obs.WriteJSON(&buf, tel.Report()); err != nil {
			t.Fatal(err)
		}
		if baseReport == nil {
			baseReport = buf.Bytes()
		} else if !bytes.Equal(baseReport, buf.Bytes()) {
			t.Fatalf("workers=%d: telemetry report differs from workers=1", workers)
		}
	}
}

// TestTelemetryCountersUnderRAIR checks that a cross-region RAIR run feeds
// every counter family the mechanisms live in.
func TestTelemetryCountersUnderRAIR(t *testing.T) {
	tel := telemetry.NewCollector(telemetry.Config{Window: 128})
	telemetryRun(t, 0, tel)
	r := tel.Report()
	tot := r.Totals
	if tot.VAGrantNative == 0 || tot.VAGrantForeign == 0 {
		t.Fatalf("VA grants missing: %+v", tot)
	}
	if tot.SAInGrantNative == 0 || tot.SAOutGrantNative == 0 {
		t.Fatalf("SA grants missing: %+v", tot)
	}
	if tot.DPAToNativeHigh == 0 || tot.DPAToForeignHigh == 0 {
		t.Fatalf("no DPA transitions recorded: %+v", tot)
	}
	if tot.LinkFlits == 0 {
		t.Fatal("no link flits recorded")
	}
	sawOcc := false
	for _, rr := range r.Routers {
		if len(rr.Windows) == 0 {
			t.Fatalf("node %d has no window samples", rr.Node)
		}
		for _, w := range rr.Windows {
			if w.OVCNative > 0 || w.OVCForeign > 0 {
				sawOcc = true
			}
		}
	}
	if !sawOcc {
		t.Fatal("no window sample ever observed VC occupancy")
	}
}

// TestTelemetryCreditStalls shrinks the VC buffers below the packet size so
// multi-flit packets must stall on credits mid-stream.
func TestTelemetryCreditStalls(t *testing.T) {
	regions := region.Single(topology.NewMesh(4, 4))
	cfg := router.DefaultConfig(1)
	cfg.Depth = 2
	tel := telemetry.NewCollector(telemetry.Config{})
	n := New(Params{
		Router:    cfg,
		Regions:   regions,
		Alg:       routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:       routing.LocalSelector{},
		Policy:    rairSpec,
		Telemetry: tel,
	})
	defer n.Close()
	rng := sim.NewRNG(3)
	var id uint64
	for c := int64(0); c < 2000; c++ {
		nodes := n.Mesh().N()
		for node := 0; node < nodes; node++ {
			if !rng.Bool(0.2) {
				continue
			}
			dst := rng.Intn(nodes)
			if dst == node {
				continue
			}
			id++
			n.Inject(&msg.Packet{ID: id, App: regions.AppAt(node),
				Src: node, Dst: dst, Size: 5, Class: msg.ClassRequest}, c)
		}
		n.Tick(c)
	}
	if tot := tel.Report().Totals; tot.CreditStalls == 0 {
		t.Fatalf("no credit stalls with 2-deep buffers and 5-flit packets: %+v", tot)
	}
}

// TestTelemetryChromeTraceEndToEnd sends one traced packet across the mesh
// and checks the exported Chrome trace carries one span per pipeline stage
// per router hop.
func TestTelemetryChromeTraceEndToEnd(t *testing.T) {
	regions := region.Single(topology.NewMesh(4, 4))
	tel := telemetry.NewCollector(telemetry.Config{TraceEvery: 1})
	n := New(Params{
		Router:    router.DefaultConfig(1),
		Regions:   regions,
		Alg:       routing.MinimalAdaptive{Mesh: regions.Mesh()},
		Sel:       routing.LocalSelector{},
		Policy:    rairSpec,
		Telemetry: tel,
	})
	defer n.Close()
	p := &msg.Packet{ID: 4, Src: 0, Dst: 15, Size: 5, Class: msg.ClassRequest}
	n.Inject(p, 0)
	for c := int64(0); c < 200; c++ {
		n.Tick(c)
	}
	n.CheckDrained()
	hops := n.Mesh().Distance(0, 15) + 1 // routers traversed

	var buf bytes.Buffer
	if err := tel.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   uint64 `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	spans := map[string]int{}
	instants := map[string]int{}
	for _, e := range out.TraceEvents {
		if e.PID != p.ID {
			t.Fatalf("unexpected packet %d in trace", e.PID)
		}
		switch e.Phase {
		case "X":
			spans[e.Name]++
		case "i":
			instants[e.Name]++
		}
	}
	for _, stage := range []string{"RC", "VA", "SA", "ST"} {
		if spans[stage] != hops {
			t.Fatalf("stage %s: %d spans, want one per hop (%d); spans=%v", stage, spans[stage], hops, spans)
		}
	}
	if spans["LT"] != hops-1 {
		t.Fatalf("LT spans = %d, want %d (inter-router links)", spans["LT"], hops-1)
	}
	if instants["Inject"] != 1 || instants["Eject"] != 1 {
		t.Fatalf("instants = %v, want one Inject and one Eject", instants)
	}
}
