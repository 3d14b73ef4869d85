package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"rair/internal/obs"
)

// TestNilProbeCallsAllocateNothing is the zero-cost-off contract: every
// hot-path call on a disabled (nil) probe must allocate zero bytes.
func TestNilProbeCallsAllocateNothing(t *testing.T) {
	var p *Probe
	allocs := testing.AllocsPerRun(1000, func() {
		p.VAGrant(true)
		p.VADeny(false)
		p.SAInGrant(true)
		p.SAInDeny(false)
		p.SAOutGrant(true)
		p.SAOutDeny(false)
		p.DPATransition(true)
		p.CreditStall()
		p.InjectStall()
		p.LinkFlit()
		p.Sample(100, 1, 2)
		if p.Traced(42) {
			t.Fatal("nil probe traced a packet")
		}
		p.Lifecycle(42, StageRC, 100)
	})
	if allocs != 0 {
		t.Fatalf("disabled-path telemetry calls allocated %v bytes/run, want 0", allocs)
	}
}

func TestCountersAggregateIntoReport(t *testing.T) {
	c := NewCollector(Config{Window: 10})
	p0 := c.ProbeFor(0, 0)
	p1 := c.ProbeFor(1, 1)
	p0.VAGrant(true)
	p0.VAGrant(true)
	p0.VADeny(false)
	p1.SAInGrant(false)
	p1.SAOutDeny(true)
	p1.DPATransition(true)
	p1.DPATransition(false)
	p0.CreditStall()
	p1.InjectStall()
	p0.LinkFlit()
	p0.LinkFlit()

	c.Advance(9)
	p0.Sample(9, 3, 6)
	p1.Sample(9, 0, 2)

	r := c.Report()
	if r.Totals.VAGrantNative != 2 || r.Totals.VADenyForeign != 1 {
		t.Fatalf("VA totals wrong: %+v", r.Totals)
	}
	if r.Totals.SAInGrantForeign != 1 || r.Totals.SAOutDenyNative != 1 {
		t.Fatalf("SA totals wrong: %+v", r.Totals)
	}
	if r.Totals.DPAToNativeHigh != 1 || r.Totals.DPAToForeignHigh != 1 {
		t.Fatalf("DPA totals wrong: %+v", r.Totals)
	}
	if r.Totals.CreditStalls != 1 || r.Totals.InjectStalls != 1 || r.Totals.LinkFlits != 2 {
		t.Fatalf("stall/link totals wrong: %+v", r.Totals)
	}
	if len(r.Routers) != 2 {
		t.Fatalf("router reports = %d, want 2", len(r.Routers))
	}
	w0 := r.Routers[0].Windows
	if len(w0) != 1 || w0[0].OVCNative != 3 || w0[0].OVCForeign != 6 || w0[0].Ratio != 2 {
		t.Fatalf("node 0 window wrong: %+v", w0)
	}
	if w0[0].LinkFlits != 2 || w0[0].Utilization != 0.2 {
		t.Fatalf("node 0 link window wrong: %+v", w0[0])
	}
	w1 := r.Routers[1].Windows
	if len(w1) != 1 || w1[0].Ratio != -1 {
		t.Fatalf("node 1 infinite ratio not encoded: %+v", w1)
	}
}

func TestWindowRingOverwritesOldest(t *testing.T) {
	c := NewCollector(Config{Window: 4, WindowCap: 3})
	p := c.ProbeFor(0, 0)
	for i := int64(0); i < 5; i++ {
		p.Sample(4*i+3, int(i), 0)
	}
	got := p.Windows()
	if len(got) != 3 {
		t.Fatalf("retained %d windows, want 3", len(got))
	}
	for i, want := range []int64{11, 15, 19} {
		if got[i].Cycle != want {
			t.Fatalf("window %d cycle = %d, want %d (not chronological)", i, got[i].Cycle, want)
		}
	}
}

func TestAdvanceWindowBoundaries(t *testing.T) {
	c := NewCollector(Config{Window: 8})
	var boundaries []int64
	for now := int64(0); now < 24; now++ {
		if c.Advance(now) {
			boundaries = append(boundaries, now)
		}
	}
	if len(boundaries) != 3 || boundaries[0] != 7 || boundaries[2] != 23 {
		t.Fatalf("boundaries = %v", boundaries)
	}
}

func TestTracedSampling(t *testing.T) {
	c := NewCollector(Config{TraceEvery: 4})
	p := c.ProbeFor(0, 0)
	if !p.Traced(0) || !p.Traced(8) || p.Traced(3) {
		t.Fatal("TraceEvery sampling wrong")
	}
	off := NewCollector(Config{}).ProbeFor(0, 0)
	if off.Traced(0) {
		t.Fatal("tracing disabled but Traced reported true")
	}
}

func TestTraceCapDrops(t *testing.T) {
	c := NewCollector(Config{TraceEvery: 1, TraceCap: 2})
	p := c.ProbeFor(0, 0)
	for i := 0; i < 5; i++ {
		p.Lifecycle(1, StageRC, int64(i))
	}
	if len(p.events) != 2 || p.dropped != 3 {
		t.Fatalf("events=%d dropped=%d, want 2/3", len(p.events), p.dropped)
	}
}

// TestChromeTraceSpans drives a synthetic two-hop packet through the
// lifecycle recorder and checks the export: one span per pipeline stage
// per hop, plus LT bridges, as valid trace_event JSON.
func TestChromeTraceSpans(t *testing.T) {
	c := NewCollector(Config{TraceEvery: 1})
	n0 := c.ProbeFor(0, 0)
	n1 := c.ProbeFor(1, 0)
	// Hop 0: RC@10, VA@11, SA@12, ST@13. Link latency 2 → hop 1 RC@15.
	n0.Lifecycle(7, StageInject, 8)
	n0.Lifecycle(7, StageRC, 10)
	n0.Lifecycle(7, StageVA, 11)
	n0.Lifecycle(7, StageSA, 12)
	n0.Lifecycle(7, StageST, 13)
	n1.Lifecycle(7, StageRC, 15)
	n1.Lifecycle(7, StageVA, 16)
	n1.Lifecycle(7, StageSA, 17)
	n1.Lifecycle(7, StageST, 18)
	n1.Lifecycle(7, StageEject, 21)

	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			TS    int64  `json:"ts"`
			Dur   int64  `json:"dur"`
			PID   uint64 `json:"pid"`
			TID   int64  `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, e := range out.TraceEvents {
		if e.PID != 7 {
			t.Fatalf("event for wrong packet: %+v", e)
		}
		if e.Phase == "X" {
			spans[e.Name]++
			if e.Dur < 1 {
				t.Fatalf("span %s has dur %d", e.Name, e.Dur)
			}
		}
	}
	for _, stage := range []string{"RC", "VA", "SA", "ST"} {
		if spans[stage] != 2 {
			t.Fatalf("stage %s has %d spans, want one per hop (2); spans=%v", stage, spans[stage], spans)
		}
	}
	if spans["LT"] != 1 {
		t.Fatalf("LT spans = %d, want 1", spans["LT"])
	}
	instants := 0
	for _, e := range out.TraceEvents {
		if e.Phase == "i" {
			instants++
		}
	}
	if instants != 2 {
		t.Fatalf("instant events = %d, want Inject+Eject", instants)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	c := NewCollector(Config{Window: 16})
	p := c.ProbeFor(0, 0)
	p.DPATransition(true)
	p.Sample(15, 1, 3)
	var buf bytes.Buffer
	if err := obs.WriteJSON(&buf, c.Report()); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Totals.DPAToNativeHigh != 1 || len(back.Routers) != 1 || len(back.Routers[0].Windows) != 1 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}
