package harness

import (
	"fmt"

	"rair/internal/collective"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/stats"
	"rair/internal/traffic"
	"rair/internal/workload"
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
	mesh := Mesh8()
	regs := region.Quadrants(mesh)
	apps := make([]traffic.AppTraffic, 3)
	for a := 0; a < 3; a++ {
		nodes := regs.Nodes(a)
		app := traffic.AppTraffic{
			App: a, Nodes: nodes,
			Components: []traffic.Component{
				{Weight: 0.7, Draw: traffic.IntraUR(nodes).Draw},
				{Weight: 0.3, Draw: traffic.DirectedTo(regs.Nodes(CollectiveApp)).Draw},
			},
		}
		app.PacketRate = Rate(mesh, app, 0.20)
		apps[a] = app
	}
	return regs, apps, NewCollectiveSpec(op, regs, CollectiveApp, msg.ClassRequest)
}

// CollResult holds one collective co-run comparison: per scheme, the victim
// applications' APL without and with the collective, and the collective's
// completion statistics from the co-run.
type CollResult struct {
	Title   string
	Schemes []string
	Apps    []string // victim app names
	// Base/Co APL [scheme][victim app]; Slowdown = Co/Base.
	Base [][]float64
	Co   [][]float64
	// CCT is the mean collective completion time (cycles per round) and
	// Rounds the completed rounds, both from the co-run.
	CCT    []float64
	Rounds []int64
}

// Slowdown returns the APL slowdown of victim ai under scheme si.
func (r *CollResult) Slowdown(si, ai int) float64 {
	return stats.Slowdown(r.Base[si][ai], r.Co[si][ai])
}

// AvgSlowdown returns the mean victim slowdown of scheme si.
func (r *CollResult) AvgSlowdown(si int) float64 {
	sum := 0.0
	for ai := range r.Apps {
		sum += r.Slowdown(si, ai)
	}
	return sum / float64(len(r.Apps))
}

// Table renders the comparison: victim slowdowns, their average, and the
// collective's completion time and round count per scheme.
func (r *CollResult) Table() *Table {
	t := &Table{
		Title:  r.Title,
		Header: append(append([]string{"scheme"}, r.Apps...), "avg slowdown", "cct", "rounds"),
	}
	for si, s := range r.Schemes {
		row := []string{s}
		for ai := range r.Apps {
			row = append(row, f2(r.Slowdown(si, ai)))
		}
		row = append(row, f2(r.AvgSlowdown(si)),
			fmt.Sprintf("%.1f", r.CCT[si]), fmt.Sprintf("%d", r.Rounds[si]))
		t.AddRow(row...)
	}
	return t
}

// collectiveSchemes is the scheme panel of the co-run experiments; ranks
// order the victims above the collective (the oracle STC ranking: the
// throughput-bound collective is the most network-intensive application).
func collectiveSchemes() []Scheme {
	return []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank([]int{0, 1, 2, 3}), RAIR("RA_RAIR")}
}

// CollectiveSynth runs the synthetic collective co-run across the scheme
// panel: per scheme, the victims alone (base) and the victims with the
// collective in quadrant 3 (co-run), all points in parallel through the
// standard runner.
func CollectiveSynth(op collective.Op, dur Durations, seed uint64) *CollResult {
	regs, apps, spec := CollectiveScenario(op)
	schemes := collectiveSchemes()
	res := &CollResult{
		Title: fmt.Sprintf("Collective co-run (synthetic victims): %v in quadrant 3", op),
		Apps:  []string{"app0", "app1", "app2"},
	}
	progs := make([]collective.Progress, len(schemes))
	var rcs []RunConfig
	for i, s := range schemes {
		base := RunConfig{Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: s, Dur: dur, Seed: seed}
		co := base
		co.Collective = &spec
		si := i
		co.CollectiveDone = func(p collective.Progress) { progs[si] = p }
		rcs = append(rcs, base, co)
	}
	cols := RunParallel(rcs)
	for si, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		res.Base = append(res.Base, appMeans(cols[2*si], len(res.Apps)))
		res.Co = append(res.Co, appMeans(cols[2*si+1], len(res.Apps)))
		res.CCT = append(res.CCT, progs[si].CompletionTime())
		res.Rounds = append(res.Rounds, progs[si].Rounds)
	}
	return res
}

// CollSharedFrac is the out-of-region home fraction the PARSEC co-run uses.
// The Table 1 default (0.10) models mostly-partitioned applications, which
// barely touch the collective's quadrant at all; the co-run question is
// about applications that do share data across the chip, so the experiment
// raises the fraction until a meaningful share of victim cache traffic is
// homed in (and must round-trip through) the aggressor's region.
const CollSharedFrac = 0.40

// collectivePARSECConfig is one PARSEC/collective co-run point: the PARSEC
// proxies (blackscholes, swaptions, fluidanimate) on quadrants 0-2 through
// the Table 1 memory system with CollSharedFrac shared homes, and — when op
// is non-nil — the collective on quadrant 3, its progress reported to done.
func collectivePARSECConfig(s Scheme, op *collective.Op, dur Durations, seed uint64, done func(collective.Progress)) RunConfig {
	mesh := Mesh8()
	regs := region.Quadrants(mesh)
	profiles := workload.Profiles()
	streams := make([]memsys.AddressStream, mesh.N())
	for node := 0; node < mesh.N(); node++ {
		if app := regs.AppAt(node); app != CollectiveApp {
			streams[node] = workload.NewStream(profiles[app], app, node)
		}
	}
	mcfg := memsys.DefaultSystemConfig()
	mcfg.SharedFrac = CollSharedFrac
	rc := RunConfig{
		Regions: regs, Router: MemsysRouterConfig(), Scheme: s, Dur: dur, Seed: seed,
		Attach: func(inject Inject, _ *msg.Pool) Attached {
			return MemsysAttach(mcfg, regs, streams, seed, inject)
		},
	}
	if op != nil {
		// Long data packets ride the response class, like the memory
		// system's own data replies.
		spec := NewCollectiveSpec(*op, regs, CollectiveApp, msg.ClassResponse)
		rc.Collective = &spec
		rc.CollectiveDone = done
	}
	return rc
}

// RunCollectivePARSEC executes one PARSEC/collective co-run point. The
// returned collector covers the victim applications only; the collective's
// own outcome is the returned progress (zero-valued when op is nil).
func RunCollectivePARSEC(s Scheme, op *collective.Op, dur Durations, seed uint64) (*stats.Collector, collective.Progress) {
	var prog collective.Progress
	col := Run(collectivePARSECConfig(s, op, dur, seed, func(p collective.Progress) { prog = p }))
	return col, prog
}

// CollectivePARSEC runs the PARSEC co-run comparison for one collective
// operation across the scheme panel: per scheme, the proxies alone and the
// proxies with the collective in quadrant 3 — the paper's interference
// question with a phase-structured aggressor instead of a Bernoulli flood.
func CollectivePARSEC(op collective.Op, dur Durations, seed uint64) *CollResult {
	schemes := collectiveSchemes()
	res := &CollResult{
		Title: fmt.Sprintf("Collective co-run (PARSEC victims): %v in quadrant 3", op),
	}
	for _, p := range workload.Profiles()[:3] {
		res.Apps = append(res.Apps, p.Name)
	}
	progs := make([]collective.Progress, len(schemes))
	var rcs []RunConfig
	for i, s := range schemes {
		rcs = append(rcs,
			collectivePARSECConfig(s, nil, dur, seed, nil),
			collectivePARSECConfig(s, &op, dur, seed, func(p collective.Progress) { progs[i] = p }))
	}
	cols := RunParallel(rcs)
	for si, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		res.Base = append(res.Base, appMeans(cols[2*si], len(res.Apps)))
		res.Co = append(res.Co, appMeans(cols[2*si+1], len(res.Apps)))
		res.CCT = append(res.CCT, progs[si].CompletionTime())
		res.Rounds = append(res.Rounds, progs[si].Rounds)
	}
	return res
}
