package main

import (
	"time"

	"rair/internal/harness"
	"rair/internal/memsys"
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/sim"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// The load calibration is held here, not read from the harness: a later
// recalibration of harness.SatEfficiency must not silently move the load
// the benchmark times.
const (
	satEfficiency = 0.70
	satSamples    = 1000
	satSeed       = 0xfeed
)

// sixAppLoads are the load fractions of the paper's six-application
// scenario (Figure 13).
var sixAppLoads = [6]float64{0.10, 0.90, 0.20, 0.30, 0.15, 0.90}

// Scheme names of the fig14 panel, in leg order.
const (
	schemeRORR   = "RO_RR"
	schemeRORank = "RO_Rank"
	schemeDBAR   = "RA_DBAR"
	schemeRAIR   = "RA_RAIR"
)

var panelSchemes = []string{schemeRORR, schemeRORank, schemeDBAR, schemeRAIR}

// paperReductionPct is Figure 14's average APL reduction versus RO_RR.
var paperReductionPct = map[string]float64{schemeRORank: 5.8, schemeDBAR: 3.4, schemeRAIR: 10.1}

// sizes are the phase lengths of one leg, in simulated cycles.
type sizes struct {
	Warmup    int64 `json:"warmup"`
	Timed     int64 `json:"timed"`
	Drain     int64 `json:"drain"`
	Preflight int64 `json:"preflight"`
}

// workload is one benchmark input. The timed window is perSecond cycles for
// every second asked of the run, so a given (-seed, -seconds) always
// simulates the same cycles and the digest repeats; perSecond is today's
// speed on the 2-core reference box, rounded down.
type workload struct {
	name      string
	procs     int // GOMAXPROCS of the child process
	workers   int // network.Params.Workers
	parsec    bool
	schemes   []string
	warmup    int64
	perSecond int64
	drain     int64
	preflight int64
	build     func(bt *buildTimes) *scenario
}

func (w *workload) sizes(seconds int) sizes {
	return sizes{Warmup: w.warmup, Timed: w.perSecond * int64(seconds), Drain: w.drain, Preflight: w.preflight}
}

var workloads = []*workload{
	{name: "quad8", procs: 1, workers: 1, schemes: []string{schemeRAIR},
		warmup: 20000, perSecond: 30000, drain: 20000, preflight: 2000,
		build: func(bt *buildTimes) *scenario { return quadScenario(8, 0.5, bt) }},
	{name: "fig14-panel", procs: 1, workers: 1, schemes: panelSchemes,
		warmup: 10000, perSecond: 10000, drain: 20000, preflight: 2000,
		build: sixAppScenario},
	{name: "lowload8", procs: 1, workers: 1, schemes: []string{schemeRAIR},
		warmup: 100000, perSecond: 300000, drain: 20000, preflight: 2000,
		build: func(bt *buildTimes) *scenario { return quadScenario(8, 0.05, bt) }},
	{name: "mesh32-serial", procs: 1, workers: 1, schemes: []string{schemeRAIR},
		warmup: 1000, perSecond: 800, drain: 20000, preflight: 500,
		build: func(bt *buildTimes) *scenario { return quadScenario(32, 0.5, bt) }},
	{name: "mesh32-w2", procs: 2, workers: 2, schemes: []string{schemeRAIR},
		warmup: 1000, perSecond: 800, drain: 20000, preflight: 500,
		build: func(bt *buildTimes) *scenario { return quadScenario(32, 0.5, bt) }},
	{name: "parsec8", procs: 1, workers: 1, parsec: true, schemes: []string{schemeRAIR},
		warmup: 10000, perSecond: 12000, drain: 20000, preflight: 2000,
		build: parsecScenario},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scenario is what a workload's build produces before any network exists.
type scenario struct {
	regs *region.Map
	cfg  router.Config
	apps []traffic.AppTraffic // empty for parsec8
}

// buildTimes splits one set-up into the layers that own it.
type buildTimes struct {
	satCalib time.Duration // traffic.SaturationRate
	prewarm  time.Duration // memsys.System.Prewarm
}

func (bt *buildTimes) rate(mesh *topology.Mesh, app traffic.AppTraffic, frac float64) float64 {
	t0 := time.Now()
	sat := traffic.SaturationRate(mesh, app, satSamples, satSeed)
	bt.satCalib += time.Since(t0)
	return frac * satEfficiency * sat
}

// quadScenario is the repo's historical throughput probe
// (BenchmarkSimulatorThroughput) on an edge×edge mesh: four applications on
// quadrants, each 80 % intra-region and 20 % inter-region uniform random,
// all at frac of saturation.
func quadScenario(edge int, frac float64, bt *buildTimes) *scenario {
	mesh := topology.NewMesh(edge, edge)
	regs := region.Quadrants(mesh)
	ur := traffic.PatternByName("UR", mesh)
	apps := make([]traffic.AppTraffic, 4)
	for a := range apps {
		nodes := regs.Nodes(a)
		app := traffic.AppTraffic{App: a, Nodes: nodes, Components: []traffic.Component{
			{Weight: 0.8, Draw: traffic.IntraUR(nodes).Draw},
			{Weight: 0.2, Draw: traffic.InterPattern(regs, ur).Draw},
		}}
		app.PacketRate = bt.rate(mesh, app, frac)
		apps[a] = app
	}
	return &scenario{regs: regs, cfg: router.DefaultConfig(1), apps: apps}
}

// sixAppScenario is the paper's six-application scenario (Figure 13): per
// application 75 % intra-region uniform random, 20 % inter-region uniform
// random and 5 % memory-controller traffic to and from the corners.
func sixAppScenario(bt *buildTimes) *scenario {
	mesh := topology.NewMesh(8, 8)
	regs := region.SixGrid(mesh)
	ur := traffic.PatternByName("UR", mesh)
	apps := make([]traffic.AppTraffic, len(sixAppLoads))
	for a := range apps {
		nodes := regs.Nodes(a)
		app := traffic.AppTraffic{App: a, Nodes: nodes, Components: []traffic.Component{
			{Weight: 0.75, Draw: traffic.IntraUR(nodes).Draw},
			{Weight: 0.20, Draw: traffic.InterPattern(regs, ur).Draw},
			{Weight: 0.05, Draw: traffic.MCCorners(mesh).Draw},
		}}
		app.PacketRate = bt.rate(mesh, app, sixAppLoads[a])
		apps[a] = app
	}
	return &scenario{regs: regs, cfg: router.DefaultConfig(1), apps: apps}
}

// parsecScenario is the PARSEC-proxy set-up of Figure 16 without the
// adversary. The address streams carry state, so every leg takes fresh ones
// from harness.PARSECScenario when it builds its memory system.
func parsecScenario(*buildTimes) *scenario {
	regs, _ := harness.PARSECScenario()
	return &scenario{regs: regs, cfg: router.DefaultConfig(int(msg.NumClasses))}
}

// schemeByName resolves a panel scheme; RO_Rank gets the oracle ranking of
// the six-application loads (least loaded first), as the paper grants it.
func schemeByName(name string) harness.Scheme {
	switch name {
	case schemeRORR:
		return harness.RORR()
	case schemeRORank:
		ranks := make([]int, len(sixAppLoads))
		for a, la := range sixAppLoads {
			for b, lb := range sixAppLoads {
				if lb < la || (lb == la && b < a) {
					ranks[a]++
				}
			}
		}
		return harness.RORank(ranks)
	case schemeDBAR:
		return harness.RORRDBAR(name)
	case schemeRAIR:
		return harness.RAIR(name)
	}
	panic("rairperf: unknown scheme " + name)
}

// gatedStream stops a core issuing once the window has closed, so the
// closed-loop memory system can drain: memsys has no Until of its own.
type gatedStream struct {
	inner  memsys.AddressStream
	closed *bool
}

func (g gatedStream) Next(rng *sim.RNG) (memsys.Access, bool) {
	if *g.closed {
		return memsys.Access{}, false
	}
	return g.inner.Next(rng)
}
