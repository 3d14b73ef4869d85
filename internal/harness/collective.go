package harness

import (
	"fmt"

	"rair/internal/collective"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/traffic"
)

// CollectiveApp is the application number (and quadrant) the co-run
// experiments place the collective in; apps 0-2 are the victims.
const CollectiveApp = 3

// NewCollectiveSpec parameterizes a collective workload on app's region at
// the operating point the co-run experiments use: eight packets per chunk
// (several long packets per ring hop in flight, enough to saturate the
// region), a small seeded start jitter so distinct seeds produce distinct
// streams, and a short inter-round gap.
func NewCollectiveSpec(op collective.Op, regs *region.Map, app int, class msg.Class) collective.Spec {
	return collective.Spec{
		Op:    op,
		App:   app,
		Nodes: regs.Nodes(app),
		Mesh:  regs.Mesh(),
		// ChunkPackets scales offered load: the dependency window lets a
		// rank run a full chunk ahead of its inbound step, so 8 long
		// packets per chunk keeps the region past its capacity knee.
		ChunkPackets: 8,
		Jitter:       8,
		Gap:          16,
		Class:        class,
	}
}

// CollectiveScenario builds the synthetic co-run point: quadrants on the
// 8×8 mesh, victim apps 0-2 at 20% of saturation with 30% of their traffic
// directed into the collective's region (the Figure 12(a) structure — light
// apps sending into a hot region), and the collective on quadrant 3.
func CollectiveScenario(op collective.Op) (*region.Map, []traffic.AppTraffic, collective.Spec) {
	regs := region.Quadrants(Mesh8())
	victim := App{Load: 0.20, Global: 0.3, To: regs.Nodes(CollectiveApp)}
	return regs, Apps(regs, victim, victim, victim), NewCollectiveSpec(op, regs, CollectiveApp, msg.ClassRequest)
}

// collectiveTable runs a collective co-run comparison across the scheme
// panel — per scheme, alone's run of the victim applications, then the same
// run beside the collective in quadrant 3 — and renders the victims'
// slowdowns with the collective's mean completion time (cycles per round) and
// completed rounds from each co-run. Ranks order the victims above the
// collective (the oracle STC ranking: the throughput-bound collective is the
// most network-intensive application).
func collectiveTable(title string, victims []string, spec collective.Spec, alone func(s Scheme) RunConfig) *Table {
	schemes := ComparedSchemes([]int{0, 1, 2, 3})
	srcs := make([]*collective.Source, len(schemes))
	p := coRunPanel(title, schemes, victims, func(i int, s Scheme) (base, co RunConfig) {
		base = alone(s)
		return base, withCollective(base, spec, &srcs[i])
	})
	t := p.SlowdownTable("avg slowdown")
	t.Header = append(t.Header, "cct", "rounds")
	for i, src := range srcs {
		prog := src.Progress()
		t.Rows[i] = append(t.Rows[i], fmt.Sprintf("%.1f", prog.CompletionTime()), fmt.Sprintf("%d", prog.Rounds))
	}
	return t
}

// withCollective returns rc with the collective over spec attached after
// rc's own sources, sending until the end of the measurement window; *src
// receives the collective source when the run is built.
func withCollective(rc RunConfig, spec collective.Spec, src **collective.Source) RunConfig {
	attach := rc.Attach
	rc.Attach = func(inject Inject, pool *msg.Pool) Attached {
		var att Attached
		if attach != nil {
			att = attach(inject, pool)
		}
		*src = att.AddCollective(spec, rc.Seed, rc.Dur.Warmup+rc.Dur.Measure, inject, pool)
		return att
	}
	return rc
}

// CollectiveSynth runs the synthetic collective co-run across the scheme
// panel, all points in parallel through the standard runner.
func CollectiveSynth(op collective.Op, dur Durations, seed uint64) *Table {
	regs, apps, spec := CollectiveScenario(op)
	return collectiveTable(fmt.Sprintf("Collective co-run (synthetic victims): %v in quadrant 3", op),
		appNames("app", 3), spec, func(s Scheme) RunConfig {
			return RunConfig{Regions: regs, Router: synthCfg(), Apps: apps, Scheme: s, Dur: dur, Seed: seed}
		})
}

// CollSharedFrac is the out-of-region home fraction the PARSEC co-run uses.
// The Table 1 default (0.10) models mostly-partitioned applications, which
// barely touch the collective's quadrant at all; the co-run question is
// about applications that do share data across the chip, so the experiment
// raises the fraction until a meaningful share of victim cache traffic is
// homed in (and must round-trip through) the aggressor's region.
const CollSharedFrac = 0.40

// collectivePARSECConfig is one point of the PARSEC/collective co-run before
// the collective joins: the PARSEC proxies (blackscholes, swaptions,
// fluidanimate) on quadrants 0-2 of regs through the Table 1 memory system
// with CollSharedFrac shared homes, quadrant 3 idle.
func collectivePARSECConfig(regs *region.Map, s Scheme, dur Durations, seed uint64) RunConfig {
	mcfg := memsys.DefaultSystemConfig()
	mcfg.SharedFrac = CollSharedFrac
	return RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: s, Dur: dur, Seed: seed,
		Attach: func(inject Inject, _ *msg.Pool) Attached {
			return MemsysAttach(mcfg, regs, CollectiveApp, seed, inject)
		},
	}
}

// CollectivePARSEC runs the PARSEC co-run comparison for one collective
// operation across the scheme panel: per scheme, the proxies alone and the
// proxies with the collective in quadrant 3 — the paper's interference
// question with a phase-structured aggressor instead of a Bernoulli flood.
func CollectivePARSEC(op collective.Op, dur Durations, seed uint64) *Table {
	regs := region.Quadrants(Mesh8())
	// Long data packets ride the response class, like the memory system's
	// own data replies.
	spec := NewCollectiveSpec(op, regs, CollectiveApp, msg.ClassResponse)
	return collectiveTable(fmt.Sprintf("Collective co-run (PARSEC victims): %v in quadrant 3", op),
		parsecNames(3), spec, func(s Scheme) RunConfig { return collectivePARSECConfig(regs, s, dur, seed) })
}
