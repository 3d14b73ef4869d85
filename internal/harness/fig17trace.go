package harness

import (
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/stats"
	"rair/internal/trace"
)

// RecordPARSECTrace captures the PARSEC-proxy scenario's packet injections
// over a neutral (RO_RR) network for the given horizon — the trace-capture
// step of the paper's methodology (SIMICS+GEMS traces fed to GARNET).
func RecordPARSECTrace(cycles int64, seed uint64) *trace.Trace {
	regs := region.Quadrants(Mesh8())
	var rec trace.Recorder
	Run(RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: RORR(),
		Dur: Durations{Measure: cycles}, Seed: seed,
		Attach: func(inject Inject, _ *msg.Pool) Attached {
			return MemsysAttach(memsys.DefaultSystemConfig(), regs, -1, seed,
				func(node int, p *msg.Packet, now int64) {
					rec.Capture(node, p, now)
					inject(node, p, now)
				})
		},
	})
	rec.T.Sort()
	return &rec.T
}

// Replay is the outcome of one trace replay: the latency collector for the
// applications' packets, how many trace events were injected, the cycle the
// replay stopped at, and whether the network had drained by then.
type Replay struct {
	Col      *stats.Collector
	Injected uint64
	Cycles   int64
	Drained  bool
}

// ReplayDrain bounds the drain phase of the trace-driven experiments.
const ReplayDrain = 100000

// ReplayPARSEC replays a captured trace under a scheme, with an optional
// adversarial injector at advRate flits/node/cycle (0 = none), measuring
// from warmup to the trace's last cycle and then draining for at most drain
// cycles (events stamped with that last cycle enter on the first drain step,
// outside the window). Unlike the closed-loop PARSEC runs, replay holds the
// traffic identical across schemes — the paper's trace-driven comparison.
func ReplayPARSEC(t *trace.Trace, s Scheme, advRate float64, warmup, drain int64, seed uint64) Replay {
	var player *trace.Player
	b := Build(replayConfig(t, s, advRate, warmup, drain, seed, &player))
	defer b.Close()
	col := b.Run()
	return Replay{Col: col, Injected: player.Injected(), Cycles: b.Eng.Now(), Drained: b.Net.Drained()}
}

// replayConfig is ReplayPARSEC's simulation point; *player receives the
// trace player when the run is built. Replayed packets come from the run's
// pool, which the network refills with every ejected one.
func replayConfig(t *trace.Trace, s Scheme, advRate float64, warmup, drain int64, seed uint64, player **trace.Player) RunConfig {
	regs := region.Quadrants(Mesh8())
	return RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: s, Seed: seed,
		Dur: Durations{Warmup: warmup, Measure: t.Duration() - warmup, Drain: drain},
		Attach: func(inject Inject, pool *msg.Pool) Attached {
			*player = trace.NewPlayer(t, inject)
			(*player).Pool = pool
			att := Attached{Sources: []sim.Tickable{*player}}
			if advRate > 0 {
				att.AddAdversary(regs.Mesh(), AdversaryApp, advRate, seed, t.Duration(), inject, pool)
			}
			return att
		},
	}
}

// Fig17Trace is the trace-driven variant of Figure 17: one PARSEC trace is
// captured once and replayed identically under every scheme, with and
// without the adversarial flood of the closed-loop experiment. Replay is
// open-loop — recorded injections keep coming regardless of congestion, with
// no MSHR backpressure — so queueing integrates over the horizon and the
// absolute slowdowns are much larger and window-dependent; the scheme
// comparison (who protects the applications) is the meaningful output.
func Fig17Trace(dur Durations, seed uint64) *Panel {
	t := RecordPARSECTrace(dur.Warmup+dur.Measure, seed)
	schemes := ComparedSchemes(PARSECRanks())
	var cols []*stats.Collector
	for _, s := range schemes {
		for _, advRate := range []float64{0, AdversaryFlitRate} {
			cols = append(cols, ReplayPARSEC(t, s, advRate, dur.Warmup, ReplayDrain, seed).Col)
		}
	}
	return newPanel("Figure 17 (trace-driven replay variant)", nil, cols, parsecNames(4)).paired(schemeNames(schemes))
}
