package harness

import (
	"fmt"
	"testing"

	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/traffic"
)

// Metamorphic relations: configurations that must not change a single
// ejection are compared by the golden trace's rendering (first ejections,
// total, FNV digest of every line), so no expected number is written down.

// ejectionTrace runs one point for 500 + 4000 cycles at seed 7 and renders
// every ejection the way the golden trace does.
func ejectionTrace(t *testing.T, regs *region.Map, apps []traffic.AppTraffic, s Scheme) string {
	t.Helper()
	var lines []string
	Run(RunConfig{
		Regions: regs, Router: synthCfg(), Apps: apps, Scheme: s,
		Dur:  Durations{Warmup: 500, Measure: 4000, Drain: 6000},
		Seed: 7,
		Attach: func(Inject, *msg.Pool) Attached {
			return Attached{OnEject: func(p *msg.Packet, _ int64) bool {
				lines = append(lines, ejectLine(p))
				return true
			}}
		},
	})
	if len(lines) == 0 {
		t.Fatalf("%s ejected nothing: the comparison would be vacuous", s.Name)
	}
	return renderTrace(nil, lines)
}

// With one region there is no foreign traffic: every scheme of the table
// with a native/foreign priority must arbitrate exactly as round-robin does
// over the same selection function.
func TestOneRegionRAIRIsRoundRobin(t *testing.T) {
	pt := UniformScenario(0.6)
	regs, apps := pt.Regions, pt.Apps
	want := map[SelectorKind]string{}
	covered := 0
	for _, s := range schemes {
		if s.Policy.Priority < policy.NativeH {
			continue
		}
		covered++
		rr := s
		rr.Name, rr.Policy = "RO_RR", policy.Spec{}
		if _, ok := want[s.Selector]; !ok {
			want[s.Selector] = ejectionTrace(t, regs, apps, rr)
		}
		if got := ejectionTrace(t, regs, apps, s); got != want[s.Selector] {
			t.Errorf("%s on one region differs from RO_RR over the same selection:\n%s\nwant\n%s", s.Name, got, want[s.Selector])
		}
	}
	if covered < 5 {
		t.Fatalf("only %d table rows have a native/foreign priority", covered)
	}
}

// rairDelta is RA_RAIR at DPA hysteresis width delta.
func rairDelta(delta float64) Scheme {
	s := RAIR("RAIR")
	s.Policy.Delta = delta
	return s
}

// With all traffic intra-region the DPA has no foreign occupancy to react
// to, so its hysteresis width must not matter, whatever the regions' loads.
func TestIntraRegionTrafficIgnoresDelta(t *testing.T) {
	regs := region.Quadrants(Mesh8())
	apps := Apps(regs, App{Load: 0.2}, App{Load: 0.9}, App{Load: 0.5}, App{Load: 0.7})
	want := ejectionTrace(t, regs, apps, rairDelta(0))
	for _, delta := range []float64{0.1, 0.2, 0.5} {
		if got := ejectionTrace(t, regs, apps, rairDelta(delta)); got != want {
			t.Errorf("delta %v changes an all-intra-region run:\n%s\nwant\n%s", delta, got, want)
		}
	}
}

// An application alone in its region, sending nothing out and receiving
// nothing, shares no link, buffer or arbiter with the others (minimal routes
// stay inside a rectangle): its every packet must be untouched by whatever
// intra-region load the other regions carry, under every scheme. Each
// application gets its own generator here — the harness's single generator
// draws all applications from one RNG, so there another application's rate
// shifts this one's arrivals before the network is involved (ROADMAP 2(a0)).
func TestIsolatedRegionIgnoresOtherRegions(t *testing.T) {
	regs := region.Quadrants(Mesh8())
	dur := Durations{Warmup: 500, Measure: 4000, Drain: 6000}
	app0 := func(s Scheme, others [3]float64) string {
		apps := Apps(regs, App{Load: 0.6}, App{Load: others[0]}, App{Load: others[1]}, App{Load: others[2]})
		var lines []string
		Run(RunConfig{
			Regions: regs, Router: synthCfg(), Scheme: s, Dur: dur, Seed: 7,
			Attach: func(inject Inject, pool *msg.Pool) Attached {
				att := Attached{OnEject: func(p *msg.Packet, _ int64) bool {
					if p.App == 0 {
						lines = append(lines, fmt.Sprintf("%d>%d flits %d created %d eject %d lat %d hops %d",
							p.Src, p.Dst, p.Size, p.CreatedAt, p.EjectedAt, p.TotalLatency(), p.Hops))
					}
					return true
				}}
				for i := range apps {
					gen := traffic.NewGenerator(apps[i:i+1], 7+1000*uint64(i), inject)
					gen.Until, gen.Pool = dur.Warmup+dur.Measure, pool
					att.Sources = append(att.Sources, gen)
				}
				return att
			},
		})
		if len(lines) == 0 {
			t.Fatalf("%s: app 0 ejected nothing: the comparison would be vacuous", s.Name)
		}
		return renderTrace(nil, lines)
	}
	for _, s := range []Scheme{RORR(), RORank([]int{0, 1, 2, 3}), RORRDBAR("RA_DBAR"), RAIR("RA_RAIR"), SchemeAs("RAIR_DBAR", "")} {
		want := app0(s, [3]float64{0.1, 0.1, 0.1})
		for _, others := range [][3]float64{{0.9, 0.5, 0.7}, {0.95, 0.95, 0.95}} {
			if got := app0(s, others); got != want {
				t.Errorf("%s: app 0's packets change when the other regions carry %v:\n%s\nwant\n%s", s.Name, others, got, want)
			}
		}
	}
}
