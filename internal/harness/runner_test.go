package harness

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"rair/internal/collective"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
)

// TestRunnersReproduceParent pins every runner that is expressed as a
// RunConfig to the figures its hand-written build-and-loop produced before
// the fold (testDur, seed 1): source tick order, the drain rule, the ejection
// chain and who recycles packets are all visible in them.
func TestRunnersReproduceParent(t *testing.T) {
	dur := testDur()
	rair := RAIR("RA_RAIR")
	// collectivePARSEC runs one PARSEC/collective co-run point, with the
	// ring AllReduce in quadrant 3 when co is set.
	collectivePARSEC := func(co bool) string {
		var src *collective.Source
		rc := collectivePARSECConfig(region.Quadrants(Mesh8()), rair, dur, 1)
		if co {
			spec := NewCollectiveSpec(collective.RingAllReduce, rc.Regions, CollectiveApp, msg.ClassResponse)
			rc = withCollective(rc, spec, &src)
		}
		surface := collectorSurface(Run(rc))
		var p collective.Progress
		if src != nil {
			p = src.Progress()
		}
		return fmt.Sprintf("%s | rounds=%d cct=%v deliv=%d", surface, p.Rounds, p.CompletionTime(), p.Delivered())
	}
	tr := RecordPARSECTrace(dur.Warmup+dur.Measure, 1)
	cases := []struct {
		name string
		run  func() string
		want string
	}{
		{"RunPARSEC/RO_RR", func() string { return collectorSurface(Run(parsecConfig(RORR(), false, dur, 1))) },
			"pkts=76820 apl=62.057589169487116 net=43.948607133558966 p99=461 app0=28.765314456847264 app1=55.62671406805485 app2=63.08507539073265 app3=72.3458412803715"},
		{"RunPARSEC/RO_RR/adversary", func() string { return collectorSurface(Run(parsecConfig(RORR(), true, dur, 1))) },
			"pkts=53132 apl=96.33836482722276 net=71.83998343747648 p99=492.6900000000023 app0=80.66592143085276 app1=91.73903031057446 app2=100.4217141489107 app3=99.5163125507953"},
		{"RunPARSEC/RA_RAIR", func() string { return collectorSurface(Run(parsecConfig(rair, false, dur, 1))) },
			"pkts=76833 apl=61.365572084911435 net=43.82538752879622 p99=505.679999999993 app0=29.05404089581305 app1=55.94807950461179 app2=64.07877788250079 app3=69.17560410460112"},
		{"RunPARSEC/RA_RAIR/adversary", func() string { return collectorSurface(Run(parsecConfig(rair, true, dur, 1))) },
			"pkts=53835 apl=92.44703259960993 net=63.59654499860685 p99=570 app0=33.191663175534146 app1=94.49283379431732 app2=97.62095568446863 app3=102.41705209347614"},
		{"RunCollectivePARSEC", func() string { return collectivePARSEC(false) },
			"pkts=54502 apl=56.862628894352504 net=47.65975560529889 p99=432 app0=35.07005734230865 app1=55.61425489545304 app2=61.31560995944973 | rounds=0 cct=0 deliv=0"},
		{"RunCollectivePARSEC/allreduce", func() string { return collectivePARSEC(true) },
			"pkts=53818 apl=56.80211081794195 net=47.95977182355346 p99=296.83000000000175 app0=33.85460543009388 app1=55.061968868321415 app2=61.85053816983951 | rounds=3 cct=1906 deliv=14287"},
		{"RunDynRank", func() string { return collectorSurface(RunDynRank(dur, 1)) },
			"pkts=36318 apl=33.144418745525634 net=31.566275675973348 p99=88 app0=26.335566382460414 app1=36.887762587529174 app2=25.812880765883378 app3=27.020210352650032 app4=25.92782709378618 app5=35.18515538569848"},
		{"RecordPARSECTrace", func() string {
			h := sha256.New()
			if err := tr.Write(h); err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf("len=%d dur=%d sha=%x", tr.Len(), tr.Duration(), h.Sum(nil)[:8])
		}, "len=90339 dur=6999 sha=fc791beedcec04a7"},
		{"ReplayPARSEC", func() string {
			return collectorSurface(ReplayPARSEC(tr, rair, 0, dur.Warmup, ReplayDrain, 1).Col)
		}, "pkts=76804 apl=63.28523253997188 net=44.505520545804906 p99=449.97000000000116 app0=28.031037299210453 app1=57.114257895182455 app2=66.59027367592046 app3=71.21954051588288"},
		{"ReplayPARSEC/adversary", func() string {
			return collectorSurface(ReplayPARSEC(tr, rair, AdversaryFlitRate, dur.Warmup, ReplayDrain, 1).Col)
		}, "pkts=76804 apl=1067.4636737669914 net=76.65014842976929 p99=3673 app0=85.34631091750613 app1=1047.5119380238762 app2=1136.1111636148848 app3=1164.3084100522517"},
		{"Heatmap", func() string {
			out, err := Heatmap("RA_RAIR", dur, 1)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, "per-router max output-link utilization over 7000 cycles\n" +
			"1 1 1 4 5 4 1 1 \n" +
			"1 1 2 6 6 6 2 2 \n" +
			"1 1 2 5 6 6 2 2 \n" +
			"1 1 2 5 5 5 2 2 \n" +
			"2 2 2 2 2 2 5 5 \n" +
			"2 2 2 1 2 2 6 7 \n" +
			"2 2 2 1 2 2 6 6 \n" +
			"1 2 1 1 2 2 4 4 \n" +
			" under RA_RAIR (APL 33.20)\n" +
			"regions: 3x2 grid; apps 1 (top middle) and 5 (bottom right) heavy; MCs at corners\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != tc.want {
				t.Fatalf("diverges from the parent commit\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}

// TestPARSECPanelRespectsBudget: a PARSEC panel goes through RunParallel, so
// under GOMAXPROCS(1) its memory systems and networks exist one at a time —
// no simulation is built while an earlier one still ticks — and the
// collectors equal the concurrent run's.
func TestPARSECPanelRespectsBudget(t *testing.T) {
	dur := Durations{Warmup: 300, Measure: 1200, Drain: 2000}
	panel := func(procs int) (surfaces []string, maxLive int32) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var started, live atomic.Int32
		var rcs []RunConfig
		for _, s := range []Scheme{RORR(), RAIR("RA_RAIR")} {
			for _, adv := range []bool{false, true} {
				rc := parsecConfig(s, adv, dur, 1)
				attach := rc.Attach
				rc.Attach = func(inject Inject, pool *msg.Pool) Attached {
					// A simulation that ticks after n later ones attached
					// shares the process with at least n of them.
					me := started.Add(1)
					att := attach(inject, pool)
					att.Sources = append(att.Sources, sim.TickFunc(func(int64) {
						if n := started.Load() - me + 1; n > live.Load() {
							live.Store(n)
						}
					}))
					return att
				}
				rcs = append(rcs, rc)
			}
		}
		for _, c := range RunParallel(rcs) {
			surfaces = append(surfaces, collectorSurface(c))
		}
		return surfaces, live.Load()
	}
	serial, maxLive := panel(1)
	if maxLive != 1 {
		t.Fatalf("GOMAXPROCS(1): %d simulations in flight at once, want 1", maxLive)
	}
	concurrent, _ := panel(2)
	for i := range serial {
		if serial[i] != concurrent[i] {
			t.Fatalf("point %d: GOMAXPROCS 1 and 2 disagree\n  1: %s\n  2: %s", i, serial[i], concurrent[i])
		}
	}
}
