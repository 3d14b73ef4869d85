package harness

import (
	"slices"

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

// mix builds app's traffic on its own region: intra-region uniform random at
// weight intra beside the already-weighted rest, injected at frac of the
// mix's achieved saturation. Weights are passed as the literals the scenario
// states, never derived (a last-bit difference in a weight moves RNG draws).
func mix(regs *region.Map, app int, frac, intra float64, rest ...traffic.Component) traffic.AppTraffic {
	nodes := regs.Nodes(app)
	a := traffic.AppTraffic{App: app, Nodes: nodes,
		Components: append([]traffic.Component{traffic.IntraUR(nodes).Weighted(intra)}, rest...)}
	a.PacketRate = Rate(regs.Mesh(), a, frac)
	return a
}

// Fig9Scenario builds the two-application MSP scenario (Figure 8): App 0 on
// the left half at 10% of saturation with fraction p of its traffic
// inter-region (uniform into the right half), App 1 on the right half at
// 90% of saturation, all intra-region.
func Fig9Scenario(p float64) (*region.Map, []traffic.AppTraffic) {
	regs := region.Halves(Mesh8())
	return regs, []traffic.AppTraffic{
		mix(regs, 0, 0.10, 1-p, traffic.DirectedTo(regs.Nodes(1)).Weighted(p)),
		mix(regs, 1, 0.90, 1),
	}
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
	regs := region.Quadrants(Mesh8())
	// The 30% inter-region share: the low apps' into App 3's region (a), or
	// App 3's uniformly into the other three (b).
	others := slices.Concat(regs.Nodes(0), regs.Nodes(1), regs.Nodes(2))
	apps := make([]traffic.AppTraffic, 4)
	for a := range apps {
		switch {
		case a == 3 && v == Fig12A:
			apps[a] = mix(regs, a, 0.90, 1)
		case a == 3:
			apps[a] = mix(regs, a, 0.90, 0.7, traffic.DirectedTo(others).Weighted(0.3))
		case v == Fig12A:
			apps[a] = mix(regs, a, 0.20, 0.7, traffic.DirectedTo(regs.Nodes(3)).Weighted(0.3))
		default:
			apps[a] = mix(regs, a, 0.20, 1)
		}
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
	for a := range apps {
		apps[a] = mix(regs, a, SixAppLoads[a], 0.75,
			traffic.InterPattern(regs, base).Weighted(0.20),
			traffic.MCCorners(mesh).Weighted(0.05))
	}
	return regs, apps
}

// SixAppRanks is the oracle STC ranking for the six-application scenario:
// applications ordered by configured load (0 = lowest load, ties by app
// number), which is exactly the optimal ranking the paper grants RO_Rank.
func SixAppRanks() []int {
	ranks := make([]int, len(SixAppLoads))
	for a, load := range SixAppLoads {
		for b, other := range SixAppLoads {
			if other < load || (other == load && b < a) {
				ranks[a]++
			}
		}
	}
	return ranks
}

// UniformScenario builds a single-region chip-wide uniform-random workload
// at the given fraction of saturation (latency-load curves and smoke tests).
func UniformScenario(frac float64) (*region.Map, []traffic.AppTraffic) {
	regs := region.Single(Mesh8())
	return regs, []traffic.AppTraffic{mix(regs, 0, frac, 1)}
}
