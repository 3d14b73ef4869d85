// The record's formats and its live server, exercised on rair.Report itself.
package obs_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"

	"rair"
	"rair/internal/network"
	"rair/internal/obs"
	"rair/internal/telemetry"
)

// sampleReport builds a record with every observation section populated by
// hand, so the Prometheus view is exercised without running a simulation.
func sampleReport() *rair.Report {
	tot := telemetry.Counters{
		LinkFlits: 1000, CreditStalls: 20, InjectStalls: 3,
		AttrNativeCycles: 40, AttrForeignCycles: 60, AttrEscapeCycles: 5,
	}
	attr := &telemetry.AttributionReport{
		Rows: []telemetry.DecompRow{{
			DecompKey: telemetry.DecompKey{App: 0, Class: 0},
			Decomp: telemetry.Decomp{
				Packets: 10, TotalCycles: 300, InjectQueueCycles: 10,
				ZeroLoadCycles: 185, NativeCycles: 40, ForeignCycles: 60, EscapeCycles: 5,
			},
			InterferenceRatio: 60.0 / 105.0,
		}},
	}
	attr.Total = attr.Rows[0]
	attr.Total.App = -1
	attr.Total.Class = -1
	eng := &network.EngineProfile{
		Cycles: 500, Workers: 2,
		Shards: []network.ShardProfile{
			{Shard: 0, Nodes: 32, RouterTicks: 900, NITicks: 400, RouterQuiescence: 0.5},
			{Shard: 1, Nodes: 32, RouterTicks: 800, NITicks: 300, RouterQuiescence: 0.6},
		},
		Barrier: []network.BarrierProfile{{Phase: "links", Waits: 500, WaitNS: 123456}},
	}
	eng.Barrier[0].Hist[12] = 500
	return &rair.Report{Schema: rair.ReportSchema, Cycle: 500, Telemetry: &telemetry.Report{Totals: tot}, Attribution: attr, Engine: eng}
}

var (
	sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9].*$`)
	metaLine   = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

// checkPrometheus is a strict-enough text-format check: every line is a
// well-formed sample or HELP/TYPE comment, no (name, labels) series is
// duplicated, and HELP/TYPE for a family appear exactly once, before its
// samples. It returns the set of series names seen.
func checkPrometheus(t *testing.T, text string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	series := map[string]bool{}
	declared := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !metaLine.MatchString(line) {
				t.Fatalf("malformed comment line: %q", line)
			}
			f := strings.Fields(line)
			if f[1] == "TYPE" {
				if declared[f[2]] {
					t.Fatalf("family %s declared twice", f[2])
				}
				declared[f[2]] = true
			}
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Fatalf("malformed sample line: %q", line)
		}
		key := line[:strings.LastIndex(line, " ")]
		if series[key] {
			t.Fatalf("duplicate series: %q", key)
		}
		series[key] = true
		names[strings.SplitN(key, "{", 2)[0]] = true
	}
	return names
}

func TestWritePrometheusFull(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleReport().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	names := checkPrometheus(t, buf.String())
	for _, want := range []string{
		"rair_sim_cycle",
		"rair_interference_ratio",
		"rair_latency_decomp_cycles_total",
		"rair_blame_cycles_total",
		"rair_engine_quiescence_ratio",
		"rair_engine_barrier_wait_seconds_bucket",
		"rair_engine_barrier_wait_seconds_sum",
		"rair_engine_barrier_wait_seconds_count",
	} {
		if !names[want] {
			t.Fatalf("missing series %s in:\n%s", want, buf.String())
		}
	}
	if !strings.Contains(buf.String(), `rair_interference_ratio{app="all",class="all"}`) {
		t.Fatal("missing aggregate interference-ratio row")
	}
	// The histogram must be cumulative and capped by its count.
	if !strings.Contains(buf.String(), `rair_engine_barrier_wait_seconds_bucket{phase="links",le="+Inf"} 500`) {
		t.Fatalf("missing +Inf bucket:\n%s", buf.String())
	}
}

// TestWritePrometheusEmpty pins the stable-schema contract: even a record
// with no observation section (nothing enabled, nothing published yet)
// serves parseable text with the interference-ratio gauge and the
// barrier-wait histogram series present, zero-valued — serial engines
// included.
func TestWritePrometheusEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := (&rair.Report{}).WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	names := checkPrometheus(t, buf.String())
	for _, want := range []string{
		"rair_sim_cycle",
		"rair_interference_ratio",
		"rair_engine_barrier_wait_seconds_bucket",
		"rair_engine_barrier_wait_seconds_count",
	} {
		if !names[want] {
			t.Fatalf("missing always-present series %s in:\n%s", want, buf.String())
		}
	}
}

// TestServerEndpoints serves a run's record live: the stable empty schema
// before Run, then the final record at /snapshot (the same bytes as its one
// writer) and its Prometheus view at /metrics.
func TestServerEndpoints(t *testing.T) {
	sim, err := rair.New(rair.Config{Layout: rair.LayoutHalves, Scheme: "RA_RAIR", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for app := range 2 {
		if err := sim.AddApp(rair.AppSpec{App: app, LoadFrac: 0.4, GlobalFrac: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	addr, closeObs, err := sim.ServeObs("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closeObs()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	checkPrometheus(t, get("/metrics"))
	if !strings.Contains(get("/snapshot"), `"schema": 2`) {
		t.Fatal("record served before the run lacks its schema")
	}

	rep, err := sim.Run(rair.Phases{Warmup: 200, Measure: 2000, Drain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	metrics := get("/metrics")
	checkPrometheus(t, metrics)
	if want := fmt.Sprintf("rair_sim_cycle %d\n", rep.Cycle); !strings.Contains(metrics, want) {
		t.Fatalf("final record not served, want %q in:\n%s", want, metrics)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if got := get("/snapshot"); got != buf.String() {
		t.Fatalf("/snapshot serves\n%s\nwant the record\n%s", got, buf.String())
	}
}

func TestFmtFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"}, {500, "500"}, {-3, "-3"}, {0.5, "0.5"}, {1.28e-07, "1.28e-07"},
	} {
		var buf bytes.Buffer
		err := obs.WritePrometheus(&buf, func(emit obs.Emit) { emit("v", "A value.", "gauge", "", tc.v) })
		if want := "# HELP v A value.\n# TYPE v gauge\nv " + tc.want + "\n"; err != nil || buf.String() != want {
			t.Fatalf("value %v rendered %q (%v), want %q", tc.v, buf.String(), err, want)
		}
	}
}
