package harness

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"rair/internal/msg"
	"rair/internal/trace"
)

// testDur keeps test runs short; orderings are stable at this size.
func testDur() Durations { return Durations{Warmup: 1000, Measure: 6000, Drain: 8000} }

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"RO_RR", "RO_Rank", "RA_DBAR", "RA_RAIR", "RAIR_DBAR", "RAIR_VA", "RAIR_NativeH", "RAIR_ForeignH"} {
		s, err := SchemeByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("SchemeByName(%q) = %+v, %v", name, s, err)
		}
	}
	if _, err := SchemeByName("nope"); err == nil || !strings.Contains(err.Error(), "RO_RR, RO_Rank, RA_DBAR") {
		t.Fatalf("unknown scheme: %v, want an error listing the table's names", err)
	}
}

func TestDurations(t *testing.T) {
	p := PaperDurations()
	if p.Warmup != 10000 || p.Measure != 100000 {
		t.Fatalf("paper durations %+v", p)
	}
	q := QuickDurations()
	if q.Measure >= p.Measure {
		t.Fatal("quick not quicker")
	}
}

func TestRunParallelPreservesOrder(t *testing.T) {
	regs, apps := UniformScenario(0.2)
	regs2, apps2 := UniformScenario(0.9)
	rcs := []RunConfig{
		{Regions: regs, Router: synthCfg(), Apps: apps, Scheme: RORR(), Dur: testDur(), Seed: 1},
		{Regions: regs2, Router: synthCfg(), Apps: apps2, Scheme: RORR(), Dur: testDur(), Seed: 1},
	}
	cols := RunParallel(rcs)
	if len(cols) != 2 {
		t.Fatal("missing collectors")
	}
	// The 90% run must be slower than the 20% run: order preserved.
	if cols[0].APL() >= cols[1].APL() {
		t.Fatalf("order not preserved: %.2f vs %.2f", cols[0].APL(), cols[1].APL())
	}
}

func TestRunDeterministicAcrossParallel(t *testing.T) {
	regs, apps := Fig9Scenario(0.5)
	rc := RunConfig{Regions: regs, Router: synthCfg(), Apps: apps, Scheme: RAIR("RA_RAIR"), Dur: testDur(), Seed: 42}
	want := collectorSurface(Run(rc))
	// One slot runs the points one at a time, two run them concurrently;
	// either way every collector must match the lone run.
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i, c := range RunParallel([]RunConfig{rc, rc, rc}) {
				if got := collectorSurface(c); got != want {
					t.Fatalf("point %d diverges\n got %s\nwant %s", i, got, want)
				}
			}
		})
	}
}

func TestScenarioConstruction(t *testing.T) {
	regs, apps := Fig9Scenario(0.5)
	if regs.NumApps() != 2 || len(apps) != 2 {
		t.Fatal("Fig9 scenario wrong")
	}
	if apps[0].PacketRate <= 0 || apps[1].PacketRate <= apps[0].PacketRate {
		t.Fatalf("rates wrong: %v %v", apps[0].PacketRate, apps[1].PacketRate)
	}
	for _, v := range []Fig12Variant{Fig12A, Fig12B} {
		regs, apps = Fig12Scenario(v)
		if regs.NumApps() != 4 || len(apps) != 4 {
			t.Fatal("Fig12 scenario wrong")
		}
	}
	regs, apps = Fig14Scenario("HS")
	if regs.NumApps() != 6 || len(apps) != 6 {
		t.Fatal("Fig14 scenario wrong")
	}
	ranks := SixAppRanks()
	if ranks[0] != 0 || ranks[1] < 4 || ranks[5] < 4 {
		t.Fatalf("six-app ranks wrong: %v", ranks)
	}
	regsP, streams := PARSECScenario()
	if regsP.NumApps() != 4 || len(streams) != 64 {
		t.Fatal("PARSEC scenario wrong")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "b"}}
	tab.AddRow("x", "1.00")
	tab.AddRow("longer", "2.00")
	s := tab.String()
	if !strings.Contains(s, "T\n") || !strings.Contains(s, "longer") {
		t.Fatalf("table:\n%s", s)
	}
	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n") || !strings.Contains(csv, "longer,2.00") {
		t.Fatalf("csv:\n%s", csv)
	}
	tab.AddRow(`quo"te`, "with,comma")
	if !strings.Contains(tab.CSV(), `"quo""te","with,comma"`) {
		t.Fatalf("csv quoting:\n%s", tab.CSV())
	}
}

func TestResultTables(t *testing.T) {
	res := Fig9MSP(Durations{Warmup: 200, Measure: 1500, Drain: 3000}, []float64{0.5}, 1)
	if s := res.SweepTable([]float64{0.5}).String(); !strings.Contains(s, "RAIR_VA+SA") {
		t.Fatalf("sweep table:\n%s", s)
	}
	fig := Fig12DPA(Fig12A, Durations{Warmup: 200, Measure: 1500, Drain: 3000}, 1)
	if s := fig.ReductionTable().String(); !strings.Contains(s, "avg reduction") {
		t.Fatalf("fig table:\n%s", s)
	}
}

func TestLatencyLoadCurveMonotone(t *testing.T) {
	pts := LatencyLoadCurve([]float64{0.2, 0.9}, testDur(), 1)
	if len(pts.APL) != 2 {
		t.Fatal("missing points")
	}
	if pts.APL[1][0] <= pts.APL[0][0] {
		t.Fatalf("APL must grow with load: %v", pts.APL)
	}
	if lo, hi := pts.Cols[0].FlitThroughput(64), pts.Cols[1].FlitThroughput(64); hi <= lo {
		t.Fatalf("throughput must grow below saturation: %v then %v", lo, hi)
	}
}

func TestAblations(t *testing.T) {
	d := AblateDelta([]float64{0, 0.2}, Durations{Warmup: 500, Measure: 2500, Drain: 4000}, 1)
	if len(d.APL) != 3 {
		t.Fatal("delta ablation size")
	}
	if s := d.DeltaTable().String(); !strings.Contains(s, "0.20") {
		t.Fatalf("delta table:\n%s", s)
	}
	v := AblateVCSplit([]int{1, 3}, Durations{Warmup: 500, Measure: 2500, Drain: 4000}, 1)
	if len(v.APL) != 3 {
		t.Fatal("vc split ablation size")
	}
	if s := v.VCSplitTable([]int{1, 3}).String(); !strings.Contains(s, "regional VCs") {
		t.Fatalf("vc split table:\n%s", s)
	}
}

func TestScaleStudies(t *testing.T) {
	dur := Durations{Warmup: 500, Measure: 2500, Drain: 5000}
	cores := ScaleCores(dur, 1)
	if len(cores.Points) != 4 || cores.Points[0].Nodes != 16 || cores.Points[3].Nodes != 256 {
		t.Fatalf("scale-cores points: %+v", cores.Points)
	}
	regions := ScaleRegions(dur, 1)
	if len(regions.Points) != 4 || regions.Points[3].Regions != 16 {
		t.Fatalf("scale-regions points: %+v", regions.Points)
	}
	for _, p := range regions.Points {
		if p.RORRAPL <= 0 || p.RAIRAPL <= 0 {
			t.Fatalf("empty measurement at %s", p.Label)
		}
	}
	if s := cores.Table().String(); !strings.Contains(s, "16x16") {
		t.Fatalf("table:\n%s", s)
	}
}

func TestFig17TraceReplay(t *testing.T) {
	dur := Durations{Warmup: 1000, Measure: 5000, Drain: 5000}
	res := Fig17Trace(dur, 1)
	if len(res.Labels) != 4 || len(res.Apps) != 4 {
		t.Fatalf("shape: %v %v", res.Labels, res.Apps)
	}
	for si := range res.Labels {
		for ai := range res.Apps {
			if res.Base[si][ai] <= 0 || res.APL[si][ai] <= 0 {
				t.Fatalf("empty measurement %s/%s", res.Labels[si], res.Apps[ai])
			}
		}
		if res.AvgSlowdown(si) < 0.9 {
			t.Fatalf("%s slowdown %.2f implausible", res.Labels[si], res.AvgSlowdown(si))
		}
	}
	if !strings.Contains(res.SlowdownTable("average").String(), "trace-driven") {
		t.Fatal("title missing")
	}
}

func TestRecordPARSECTraceValid(t *testing.T) {
	tr := RecordPARSECTrace(3000, 1)
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	if err := tr.Validate(64); err != nil {
		t.Fatal(err)
	}
}

// TestReplayFreelistIsBounded: a plain replay draws its packets from the
// run's pool, so once the network has drained the freelist holds at most
// the run's peak of in-flight packets, not one packet per trace event.
func TestReplayFreelistIsBounded(t *testing.T) {
	tr := RecordPARSECTrace(2000, 1)
	var player *trace.Player
	rc := replayConfig(tr, RAIR("RA_RAIR"), 0, 300, ReplayDrain, 1, &player)
	var pool *msg.Pool
	seen := map[*msg.Packet]bool{}
	live, peak := 0, 0
	attach := rc.Attach
	rc.Attach = func(inject Inject, p *msg.Pool) Attached {
		pool = p
		att := attach(func(node int, pkt *msg.Packet, now int64) {
			seen[pkt] = true
			live++
			peak = max(peak, live)
			inject(node, pkt, now)
		}, p)
		att.OnEject = func(*msg.Packet, int64) bool { live--; return true }
		return att
	}
	b := Build(rc)
	defer b.Close()
	b.Run()
	if !b.Net.Drained() || live != 0 {
		t.Fatalf("replay did not drain: %d packets in flight", live)
	}
	held := 0
	for seen[pool.Get()] {
		held++
	}
	if held > peak || 2*peak > tr.Len() {
		t.Fatalf("freelist holds %d packets after replaying %d events with at most %d in flight", held, tr.Len(), peak)
	}
}
