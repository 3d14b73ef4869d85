package harness

import (
	"runtime"
	"sync/atomic"
	"testing"

	"rair/internal/msg"
	"rair/internal/sim"
)

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
