package rair

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"rair/internal/harness"
	"rair/internal/msg"
)

func TestNewDefaults(t *testing.T) {
	sim, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sim.regions.Mesh().N() != 64 {
		t.Fatal("default mesh must be 8x8")
	}
	if sim.scheme.Name != "RO_RR" {
		t.Fatalf("default scheme %q", sim.scheme.Name)
	}
}

func TestNewValidation(t *testing.T) {
	cases := []Config{
		{MeshW: 1},
		{Layout: "hexagon"},
		{Scheme: "MAGIC"},
		{Layout: LayoutCustom, Rects: []Rect{{X0: 0, Y0: 0, X1: 9, Y1: 9}}},
		{Layout: LayoutCustom, Rects: []Rect{{X0: 0, Y0: 0, X1: 2, Y1: 2}, {X0: 1, Y0: 1, X1: 3, Y1: 3}}},
		{Depth: 5, EscapeVCs: 1, GlobalVCs: 9},
		{Scheme: "RA_RAIR", Delta: -0.5},
		{Scheme: "RA_RAIR", Delta: math.NaN()},
		{Scheme: "RA_RAIR", Delta: math.Inf(1)},
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	// Settings the run would ignore: each used to run at the default
	// (RAIR_VA at Δ 0.2, depth -3 at 5), and the error names the field.
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Scheme: "RAIR_VA", Delta: 0.5}, "delta"},
		{Config{Scheme: "RAIR_DBAR", Delta: 0.5}, "delta"},
		{Config{Scheme: "RO_RR", Ranks: []int{1, 0}}, "ranks"},
		{Config{Scheme: "RA_RAIR", Ranks: []int{1, 0}}, "ranks"},
		// A rank outside [0, n) would let a younger batch outrank an
		// older one; an empty list ranks nothing.
		{Config{Scheme: "RO_Rank", Ranks: []int{0, 9}}, "ranks"},
		{Config{Scheme: "RO_Rank", Ranks: []int{-1, 0}}, "ranks"},
		{Config{Scheme: "RO_Rank", Ranks: []int{}}, "ranks"},
		{Config{Scheme: "MAGIC"}, "RO_RR, RO_Rank, RA_DBAR, RA_RAIR, RAIR_DBAR"},
		{Config{Classes: -1}, "classes"},
		{Config{AdaptiveVCs: -2}, "adaptiveVCs"},
		{Config{GlobalVCs: -1}, "globalVCs"},
		{Config{EscapeVCs: -1}, "escapeVCs"},
		{Config{Depth: -3}, "depth"},
		{Config{LinkLatency: -1}, "linkLatency"},
	} {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got %v, want an error naming %q", c.cfg, err, c.want)
		}
	}
}

func TestCustomLayout(t *testing.T) {
	sim, err := New(Config{Layout: LayoutCustom, Rects: []Rect{
		{X0: 0, Y0: 0, X1: 8, Y1: 4}, {X0: 0, Y0: 4, X1: 8, Y1: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddApp(AppSpec{App: 1, LoadFrac: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestAddAppValidation(t *testing.T) {
	sim, _ := New(Config{Layout: LayoutHalves})
	nan := math.NaN()
	for _, c := range []struct {
		name string
		spec AppSpec
		want string // a substring of the error
	}{
		{"app without nodes", AppSpec{App: 5, LoadFrac: 0.1}, "owns no nodes"},
		{"no rate", AppSpec{App: 0}, "exactly one"},
		{"both rates", AppSpec{App: 0, LoadFrac: 0.1, PacketRate: 0.1}, "exactly one"},
		// Both used to pass the exactly-one check, the negative value
		// then ignored.
		{"negative rate beside a load", AppSpec{App: 0, LoadFrac: 0.5, PacketRate: -1}, "must not be negative"},
		{"negative load beside a rate", AppSpec{App: 1, LoadFrac: -1, PacketRate: 0.05}, "must not be negative"},
		{"fractions above 1", AppSpec{App: 0, LoadFrac: 0.1, GlobalFrac: 0.8, MCFrac: 0.4}, "out of range"},
		{"unknown global pattern", AppSpec{App: 0, LoadFrac: 0.1, GlobalFrac: 0.2, GlobalPattern: "XX"}, "[UR TP BC HS]"},
		// Every comparison is false for NaN, so these used to run a
		// traffic-free or unbounded simulation without an error.
		{"NaN load", AppSpec{App: 0, LoadFrac: nan}, "non-finite"},
		{"NaN global fraction", AppSpec{App: 0, LoadFrac: 0.2, GlobalFrac: nan}, "non-finite"},
		{"NaN MC fraction", AppSpec{App: 0, LoadFrac: 0.2, MCFrac: nan}, "non-finite"},
		{"infinite packet rate", AppSpec{App: 0, PacketRate: math.Inf(1)}, "non-finite"},
		{"infinite load", AppSpec{App: 0, LoadFrac: math.Inf(1)}, "non-finite"},
	} {
		if err := sim.AddApp(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A one-node region has no intra-region destination; its intra share
	// used to be dropped without an error (no packets at all at
	// GlobalFrac 0, half the rate at 0.5).
	for _, c := range []struct {
		name string
		cfg  Config
		spec AppSpec
	}{
		{"one-node quadrant", Config{MeshW: 3, MeshH: 3, Layout: LayoutQuadrants}, AppSpec{App: 0, LoadFrac: 0.3}},
		{"one-node custom region", Config{Layout: LayoutCustom, Rects: []Rect{{X0: 0, Y0: 0, X1: 1, Y1: 1}}},
			AppSpec{App: 0, PacketRate: 0.1, GlobalFrac: 0.5}},
	} {
		sim, err := New(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := sim.AddApp(c.spec); err == nil || !strings.Contains(err.Error(), "one node") {
			t.Errorf("%s: got %v, want an error naming the one-node region", c.name, err)
		}
		// All of the app's traffic leaving the region is still fine.
		c.spec.GlobalFrac, c.spec.MCFrac = 0.5, 0.5
		if err := sim.AddApp(c.spec); err != nil {
			t.Errorf("%s, no intra share: %v", c.name, err)
		}
	}
	// A region covering the whole mesh leaves global traffic no
	// destination: GlobalFrac 1 used to calibrate to a zero packet rate
	// without an error, and 0.2 to drop a fifth of the draws.
	for _, cfg := range []Config{{}, {Layout: LayoutCustom, Rects: []Rect{{X0: 0, Y0: 0, X1: 8, Y1: 8}}}} {
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []float64{1, 0.2} {
			if err := sim.AddApp(AppSpec{App: 0, LoadFrac: 0.5, GlobalFrac: g}); err == nil || !strings.Contains(err.Error(), "covers the mesh") {
				t.Errorf("layout %q, GlobalFrac %v: got %v, want an error naming the whole-mesh region", cfg.Layout, g, err)
			}
		}
	}
}

func TestRunRequiresTraffic(t *testing.T) {
	sim, _ := New(Config{})
	if _, err := sim.Run(QuickPhases()); err == nil {
		t.Fatal("run without traffic accepted")
	}
	sim2, _ := New(Config{})
	sim2.AddApp(AppSpec{App: 0, LoadFrac: 0.1})
	if _, err := sim2.Run(Phases{Measure: 0}); err == nil {
		t.Fatal("empty measurement window accepted")
	}
}

func TestRunSyntheticEndToEnd(t *testing.T) {
	sim, err := New(Config{Layout: LayoutHalves, Scheme: "RA_RAIR", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddApp(AppSpec{App: 0, LoadFrac: 0.1, GlobalFrac: 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddApp(AppSpec{App: 1, LoadFrac: 0.5}); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(Phases{Warmup: 500, Measure: 3000, Drain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 || rep.APL <= 0 {
		t.Fatalf("empty report: %+v", rep)
	}
	if len(rep.PerApp) != 2 {
		t.Fatalf("per-app entries %v", rep.PerApp)
	}
	if rep.GlobalAPL <= rep.RegionalAPL {
		t.Fatalf("global APL %v should exceed regional %v", rep.GlobalAPL, rep.RegionalAPL)
	}
	if !strings.Contains(rep.String(), "APL") {
		t.Fatal("report string empty")
	}
}

// TestReportStringListsEveryApp: a custom layout may hold more than sixteen
// regions, and the report's text must carry a per-app line for each.
func TestReportStringListsEveryApp(t *testing.T) {
	const regions = 17
	rects := make([]Rect, regions)
	for i := range rects {
		rects[i] = Rect{X0: 2 * i, Y0: 0, X1: 2*i + 2, Y1: 2}
	}
	sim, err := New(Config{MeshW: 2 * regions, MeshH: 2, Layout: LayoutCustom, Rects: rects})
	if err != nil {
		t.Fatal(err)
	}
	for app := 0; app < regions; app++ {
		if err := sim.AddApp(AppSpec{App: app, PacketRate: 0.05}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := sim.Run(Phases{Warmup: 100, Measure: 1500, Drain: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerApp) != regions {
		t.Fatalf("%d per-app entries, want %d", len(rep.PerApp), regions)
	}
	out := rep.String()
	for app := 0; app < regions; app++ {
		if !strings.Contains(out, fmt.Sprintf("  app %d: APL", app)) {
			t.Fatalf("app %d missing from report:\n%s", app, out)
		}
	}
	if strings.Index(out, "  app 9:") > strings.Index(out, "  app 10:") {
		t.Fatalf("per-app lines out of numeric order:\n%s", out)
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		sim, _ := New(Config{Layout: LayoutQuadrants, Scheme: "RA_RAIR", Seed: 9})
		for a := 0; a < 4; a++ {
			sim.AddApp(AppSpec{App: a, LoadFrac: 0.2, GlobalFrac: 0.2})
		}
		rep, err := sim.Run(Phases{Warmup: 500, Measure: 2000, Drain: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.APL != b.APL || a.Packets != b.Packets {
		t.Fatalf("runs differ: %+v vs %+v", a, b)
	}
}

func TestRunPARSECEndToEnd(t *testing.T) {
	sim, err := New(Config{Layout: LayoutQuadrants, Scheme: "RA_RAIR", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AttachPARSEC(); err != nil {
		t.Fatal(err)
	}
	if err := sim.AddAdversary(0.2); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(Phases{Warmup: 1000, Measure: 3000, Drain: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Packets == 0 {
		t.Fatal("no PARSEC packets measured")
	}
	// Adversary is excluded from stats: only apps 0..3 appear.
	for app := range rep.PerApp {
		if app < 0 || app > 3 {
			t.Fatalf("unexpected app %d in report", app)
		}
	}
}

// AttachPARSEC raises the router to the memory system's two message classes
// and keeps every other override: buffer depth, VC counts and link latency
// change the PARSEC run, a plain file still reproduces the figures it always
// did, and an override past the per-port VC limit is an error.
func TestAttachPARSECKeepsRouterOverrides(t *testing.T) {
	run := func(cfg Config) (*Report, error) {
		cfg.Layout, cfg.Scheme, cfg.Seed = LayoutQuadrants, "RA_RAIR", 1
		sim, err := New(cfg)
		if err != nil {
			return nil, err
		}
		if err := sim.AttachPARSEC(); err != nil {
			return nil, err
		}
		return sim.Run(Phases{Warmup: 500, Measure: 2000, Drain: 4000})
	}
	plain, err := run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("APL %.2f over %d packets", plain.APL, plain.Packets); got != "APL 60.52 over 25912 packets" {
		t.Fatalf("override-free PARSEC run moved: %s", got)
	}
	over, err := run(Config{Depth: 2, AdaptiveVCs: 2, LinkLatency: 4})
	if err != nil {
		t.Fatal(err)
	}
	if over.APL == plain.APL && over.Packets == plain.Packets {
		t.Fatalf("router overrides ignored: APL %.2f over %d packets either way", over.APL, over.Packets)
	}
	if _, err := run(Config{AdaptiveVCs: 40}); err == nil {
		t.Fatal("two classes of 41 VCs per port accepted")
	}
}

func TestMixingModesRejected(t *testing.T) {
	sim, _ := New(Config{Layout: LayoutQuadrants})
	sim.AddApp(AppSpec{App: 0, LoadFrac: 0.1})
	if err := sim.AttachPARSEC(); err == nil {
		t.Fatal("PARSEC after AddApp accepted")
	}
	sim2, _ := New(Config{Layout: LayoutQuadrants})
	sim2.AttachPARSEC()
	if err := sim2.AddApp(AppSpec{App: 0, LoadFrac: 0.1}); err == nil {
		t.Fatal("AddApp after PARSEC accepted")
	}
	if err := sim2.AddAdversary(-1); err == nil {
		t.Fatal("negative adversary rate accepted")
	}
}

func TestSchemesListed(t *testing.T) {
	for _, name := range Schemes() {
		if _, err := New(Config{Scheme: name}); err != nil {
			t.Errorf("listed scheme %q rejected: %v", name, err)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	infos := Experiments()
	if len(infos) < 10 {
		t.Fatalf("only %d experiments registered", len(infos))
	}
	for _, e := range infos {
		if e.Name == "" || e.Paper == "" {
			t.Fatalf("incomplete experiment info %+v", e)
		}
	}
	if _, _, err := ExperimentCSV("nope", true, 1); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestExperimentLBDR(t *testing.T) {
	out, _, err := ExperimentCSV("lbdr", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "0.14") {
		t.Fatalf("LBDR output missing the 14%% result:\n%s", out)
	}
}

func TestRoutingOptions(t *testing.T) {
	for _, r := range []string{"adaptive", "xy", "westfirst", ""} {
		sim, err := New(Config{Routing: r})
		if err != nil {
			t.Fatalf("routing %q rejected: %v", r, err)
		}
		sim.AddApp(AppSpec{App: 0, LoadFrac: 0.2})
		if _, err := sim.Run(Phases{Warmup: 100, Measure: 500, Drain: 3000}); err != nil {
			t.Fatalf("routing %q run: %v", r, err)
		}
	}
	if _, err := New(Config{Routing: "warp"}); err == nil {
		t.Fatal("unknown routing accepted")
	}
}

func TestLBDRRestrictions(t *testing.T) {
	sim, err := New(Config{Layout: LayoutQuadrants, Routing: "lbdr"})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.AddApp(AppSpec{App: 0, LoadFrac: 0.1, GlobalFrac: 0.1}); err == nil {
		t.Fatal("LBDR accepted inter-region traffic")
	}
	if err := sim.AddApp(AppSpec{App: 0, LoadFrac: 0.1, MCFrac: 0.1}); err == nil {
		t.Fatal("LBDR accepted MC traffic")
	}
	if err := sim.AttachPARSEC(); err == nil {
		t.Fatal("LBDR accepted the memory system")
	}
	if err := sim.AddAdversary(0.1); err == nil {
		t.Fatal("LBDR accepted an adversary")
	}
	if err := sim.AddApp(AppSpec{App: 0, LoadFrac: 0.2}); err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Run(Phases{Warmup: 100, Measure: 1000, Drain: 3000})
	if err != nil || rep.Packets == 0 {
		t.Fatalf("intra-region LBDR run failed: %v", err)
	}
	// Invalid mapping: halves layout leaves no MC in... halves contain
	// corners, so build a custom MC-less region instead.
	if _, err := New(Config{Routing: "lbdr", Layout: LayoutCustom, Rects: []Rect{
		{X0: 0, Y0: 0, X1: 2, Y1: 8}, {X0: 2, Y0: 0, X1: 6, Y1: 8}, {X0: 6, Y0: 0, X1: 8, Y1: 8},
	}}); err == nil {
		t.Fatal("LBDR accepted an MC-less region")
	}
}

// TestZeroLoadRelation is metamorphic relation (iv): a lone packet on an
// idle network takes LinkLatency + hops·(3+LinkLatency) + (Size−1) cycles
// from creation to ejection — injection link, RC+VA+SA and ST/LT per router
// traversed, serialisation of the body flits — whatever the scheme, routing
// algorithm, packet size and link latency. Every ordered pair of a 4×4
// quadrant layout is sent, one packet at a time.
func TestZeroLoadRelation(t *testing.T) {
	for _, scheme := range Schemes() {
		for _, alg := range []string{"adaptive", "xy", "westfirst"} {
			for _, ll := range []int{1, 2} {
				s, err := New(Config{MeshW: 4, MeshH: 4, Layout: LayoutQuadrants, Scheme: scheme, Routing: alg, LinkLatency: ll})
				if err != nil {
					t.Fatal(err)
				}
				var ejected *msg.Packet
				b := harness.Build(harness.RunConfig{
					Regions: s.regions, Router: s.rcfg, Scheme: s.scheme, Alg: s.alg,
					Attach: func(harness.Inject, *msg.Pool) harness.Attached {
						return harness.Attached{OnEject: func(p *msg.Packet, _ int64) bool {
							ejected = p
							return false
						}}
					},
				})
				mesh := s.regions.Mesh()
				var id uint64
				for _, size := range []int{1, 5} {
					for src := 0; src < mesh.N(); src++ {
						for dst := 0; dst < mesh.N(); dst++ {
							if src == dst {
								continue
							}
							id++
							p := &msg.Packet{ID: id, App: s.regions.AppAt(src), Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}
							ejected = nil
							b.Net.Inject(p, b.Eng.Now())
							b.Eng.RunUntil(func() bool { return ejected != nil }, 100)
							hops := mesh.Distance(src, dst) + 1
							want := int64(ll + hops*(3+ll) + size - 1)
							if ejected != p || p.TotalLatency() != want {
								t.Fatalf("%s/%s/LinkLatency %d: %d-flit packet %d>%d took %d cycles, want %d",
									scheme, alg, ll, size, src, dst, p.TotalLatency(), want)
							}
						}
					}
				}
				b.Close()
			}
		}
	}
}
