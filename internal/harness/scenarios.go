package harness

import (
	"rair/internal/region"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// satSamples is the Monte Carlo sample count per node for saturation
// estimation; estimates are deterministic for a fixed seed.
const satSamples = 1000

// satSeed keeps saturation estimation independent of simulation seeds.
const satSeed = 0xfeed

// SatEfficiency calibrates the analytic channel-capacity bound to the
// saturation throughput the router actually achieves: separable VA/SA
// allocation and finite VC counts deliver ~75-80% of ideal channel
// bandwidth (measured with LatencyLoadCurve: chip-wide UR latency diverges
// between 0.7 and 0.8 of the bound, plateauing at ≈0.40 of the ideal 0.50
// flits/node/cycle). Scenario loads quoted as "x% of saturation" are
// fractions of the achieved saturation, as in the paper.
const SatEfficiency = 0.70

// Rate returns frac × the achieved saturation rate of app, in packets per
// node per cycle.
func Rate(mesh *topology.Mesh, app traffic.AppTraffic, frac float64) float64 {
	return frac * SatEfficiency * traffic.SaturationRate(mesh, app, satSamples, satSeed)
}

// Mesh8 is the evaluation topology: a 64-node mesh (Section V.A).
func Mesh8() *topology.Mesh { return topology.NewMesh(8, 8) }

// Fig9Scenario builds the two-application MSP scenario (Figure 8): App 0 on
// the left half at 10% of saturation with fraction p of its traffic
// inter-region (uniform into the right half), App 1 on the right half at
// 90% of saturation, all intra-region.
func Fig9Scenario(p float64) (*region.Map, []traffic.AppTraffic) {
	mesh := Mesh8()
	regs := region.Halves(mesh)
	left, right := regs.Nodes(0), regs.Nodes(1)

	app0 := traffic.AppTraffic{
		App: 0, Nodes: left,
		Components: []traffic.Component{
			{Weight: 1 - p, Draw: traffic.IntraUR(left).Draw},
			{Weight: p, Draw: traffic.DirectedTo(right).Draw},
		},
	}
	app0.PacketRate = Rate(mesh, app0, 0.10)

	app1 := traffic.AppTraffic{
		App: 1, Nodes: right,
		Components: []traffic.Component{traffic.IntraUR(right)},
	}
	app1.PacketRate = Rate(mesh, app1, 0.90)

	return regs, []traffic.AppTraffic{app0, app1}
}

// Fig12Variant selects between the two contrasting DPA scenarios of
// Figure 11.
type Fig12Variant int

const (
	// Fig12A: App 0-2 low load, 30% of their traffic inter-region toward
	// App 3's region; App 3 high load, all intra-region.
	Fig12A Fig12Variant = iota
	// Fig12B: App 0-2 low load, all intra-region; App 3 high load with
	// 30% inter-region uniformly toward the other applications.
	Fig12B
)

// Fig12Scenario builds the four-application load-heterogeneity scenario on
// quadrants. Low load is 20% of saturation, high load 90% (the paper states
// low/high without exact fractions).
func Fig12Scenario(v Fig12Variant) (*region.Map, []traffic.AppTraffic) {
	mesh := Mesh8()
	regs := region.Quadrants(mesh)
	apps := make([]traffic.AppTraffic, 4)
	for a := 0; a < 4; a++ {
		nodes := regs.Nodes(a)
		var comps []traffic.Component
		frac := 0.20
		switch {
		case a == 3 && v == Fig12A:
			frac = 0.90
			comps = []traffic.Component{traffic.IntraUR(nodes)}
		case a == 3 && v == Fig12B:
			frac = 0.90
			others := make([]int, 0, 48)
			for b := 0; b < 3; b++ {
				others = append(others, regs.Nodes(b)...)
			}
			comps = []traffic.Component{
				{Weight: 0.7, Draw: traffic.IntraUR(nodes).Draw},
				{Weight: 0.3, Draw: traffic.DirectedTo(others).Draw},
			}
		case v == Fig12A:
			comps = []traffic.Component{
				{Weight: 0.7, Draw: traffic.IntraUR(nodes).Draw},
				{Weight: 0.3, Draw: traffic.DirectedTo(regs.Nodes(3)).Draw},
			}
		default: // Fig12B low apps: all intra
			comps = []traffic.Component{traffic.IntraUR(nodes)}
		}
		app := traffic.AppTraffic{App: a, Nodes: nodes, Components: comps}
		app.PacketRate = Rate(mesh, app, frac)
		apps[a] = app
	}
	return regs, apps
}

// SixAppLoads are the load fractions of the six-application scenario
// (Figure 13): apps 0, 2, 3, 4 at low-to-medium loads between 10% and 30%
// of saturation, apps 1 and 5 at 90%.
var SixAppLoads = [6]float64{0.10, 0.90, 0.20, 0.30, 0.15, 0.90}

// Fig14Scenario builds the generic six-application RNoC scenario: per app,
// 75% intra-region uniform random + 20% inter-region global traffic with
// the given pattern ("UR", "TP", "BC", "HS") + 5% memory-controller traffic
// to/from the four corners.
func Fig14Scenario(globalPattern string) (*region.Map, []traffic.AppTraffic) {
	mesh := Mesh8()
	regs := region.SixGrid(mesh)
	base := traffic.PatternByName(globalPattern, mesh)
	apps := make([]traffic.AppTraffic, 6)
	for a := 0; a < 6; a++ {
		nodes := regs.Nodes(a)
		app := traffic.AppTraffic{
			App: a, Nodes: nodes,
			Components: []traffic.Component{
				{Weight: 0.75, Draw: traffic.IntraUR(nodes).Draw},
				{Weight: 0.20, Draw: traffic.InterPattern(regs, base).Draw},
				{Weight: 0.05, Draw: traffic.MCCorners(mesh).Draw},
			},
		}
		app.PacketRate = Rate(mesh, app, SixAppLoads[a])
		apps[a] = app
	}
	return regs, apps
}

// SixAppRanks is the oracle STC ranking for the six-application scenario:
// applications ordered by configured load (least intensive first), which is
// exactly the optimal ranking the paper grants RO_Rank.
func SixAppRanks() []int {
	return ranksFromLoads(SixAppLoads[:])
}

// ranksFromLoads converts load fractions to ranks (0 = lowest load).
func ranksFromLoads(loads []float64) []int {
	ranks := make([]int, len(loads))
	for a := range loads {
		r := 0
		for b := range loads {
			if loads[b] < loads[a] || (loads[b] == loads[a] && b < a) {
				r++
			}
		}
		ranks[a] = r
	}
	return ranks
}

// UniformScenario builds a single-region chip-wide uniform-random workload
// at the given fraction of saturation (latency-load curves and smoke tests).
func UniformScenario(frac float64) (*region.Map, []traffic.AppTraffic) {
	mesh := Mesh8()
	regs := region.Single(mesh)
	nodes := regs.Nodes(0)
	app := traffic.AppTraffic{App: 0, Nodes: nodes,
		Components: []traffic.Component{traffic.IntraUR(nodes)}}
	app.PacketRate = Rate(mesh, app, frac)
	return regs, []traffic.AppTraffic{app}
}
