package harness

import (
	"fmt"
	"runtime"
	"slices"
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
	rcs := []RunConfig{UniformScenario(0.2).RunConfig, UniformScenario(0.9).RunConfig}
	for i := range rcs {
		rcs[i].Router, rcs[i].Scheme, rcs[i].Dur, rcs[i].Seed = synthCfg(), RORR(), testDur(), 1
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
	rc := Fig9Scenario(0.5).RunConfig
	rc.Router, rc.Scheme, rc.Dur, rc.Seed = synthCfg(), RAIR("RA_RAIR"), testDur(), 42
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
	pt := Fig9Scenario(0.5)
	if pt.Regions.NumApps() != 2 || len(pt.Apps) != 2 {
		t.Fatal("Fig9 scenario wrong")
	}
	if apps := pt.Apps; apps[0].PacketRate <= 0 || apps[1].PacketRate <= apps[0].PacketRate {
		t.Fatalf("rates wrong: %v %v", apps[0].PacketRate, apps[1].PacketRate)
	}
	for _, v := range []Fig12Variant{Fig12A, Fig12B} {
		if pt = Fig12Scenario(v); pt.Regions.NumApps() != 4 || len(pt.Apps) != 4 {
			t.Fatal("Fig12 scenario wrong")
		}
	}
	if pt = Fig14Scenario("HS"); pt.Regions.NumApps() != 6 || len(pt.Apps) != 6 {
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

// TestResultTables: Axis runs each scheme at each point into one panel per
// point, a point's own Scheme replacing the axis's, and the table writers
// render the panels.
func TestResultTables(t *testing.T) {
	base := Fig12Scenario(Fig12A)
	base.Label, base.Scheme = "base", RORR()
	ps := Axis([]Scheme{RORR(), RAIR("RAIR_VA+SA")}, []Point{Fig9Scenario(0.5), Fig12Scenario(Fig12A), base},
		Durations{Warmup: 200, Measure: 1500, Drain: 3000}, 1)
	if got := fmt.Sprintf("%d %s %v %v %d", len(ps), ps[0].Title, ps[1].Labels, ps[2].Labels, len(ps[1].Apps)); got != "3 50% [RO_RR RAIR_VA+SA] [RO_RR RO_RR] 4" {
		t.Fatalf("panels, titles, rows, apps: %s", got)
	}
	if !slices.Equal(ps[1].APL[0], ps[2].APL[0]) || !slices.Equal(ps[2].APL[0], ps[2].APL[1]) {
		t.Fatalf("the same RO_RR run differs: %v %v", ps[1].APL[0], ps[2].APL)
	}
	if s := SweepTable("", nil, ps[:1]).String(); !strings.Contains(s, "RAIR_VA+SA  50%") {
		t.Fatalf("sweep table:\n%s", s)
	}
	if s := ReductionTable("", nil, ps[1:2]).String(); !strings.Contains(s, "avg reduction vs RO_RR") {
		t.Fatalf("fig table:\n%s", s)
	}
}

func TestLatencyLoadCurveMonotone(t *testing.T) {
	ps := Axis([]Scheme{RORR()}, []Point{UniformScenario(0.2), UniformScenario(0.9)}, testDur(), 1)
	if lo, hi := ps[0].APL[0][0], ps[1].APL[0][0]; hi <= lo {
		t.Fatalf("APL must grow with load: %v then %v", lo, hi)
	}
	if lo, hi := ps[0].Cols[0].FlitThroughput(64), ps[1].Cols[0].FlitThroughput(64); hi <= lo {
		t.Fatalf("throughput must grow below saturation: %v then %v", lo, hi)
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
