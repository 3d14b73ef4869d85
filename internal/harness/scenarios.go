package harness

import (
	"cmp"
	"fmt"
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
// bandwidth (measured with the curve experiment: chip-wide UR latency
// diverges between 0.7 and 0.8 of the bound, plateauing at ≈0.40 of the
// ideal 0.50 flits/node/cycle). Scenario loads quoted as "x% of saturation"
// are fractions of the achieved saturation, as in the paper.
const SatEfficiency = 0.70

// Mesh8 is the evaluation topology: a 64-node mesh (Section V.A).
func Mesh8() *topology.Mesh { return topology.NewMesh(8, 8) }

// App describes one synthetic application, for the paper's scenarios and
// rair.AddApp alike. Its traffic is a Global share crossing regions — into
// the nodes To when set, else along the chip-wide Pattern (default "UR") —
// an MC share to and from the corner memory controllers, and the
// intra-region uniform-random rest, 1 − Global − MC. It injects Rate
// packets per node per cycle, or, when Rate is not positive, Load × the
// mix's achieved saturation.
type App struct {
	Load, Rate float64
	Global     float64
	Pattern    string
	To         []int
	MC         float64
}

// Traffic builds d as application app's traffic on its region of regs. A
// zero share gets no component, which changes no draw: draw skips a
// zero-weight component without consuming randomness, and 0 + w == w.
func (d App) Traffic(regs *region.Map, app int) traffic.AppTraffic {
	mesh, nodes := regs.Mesh(), regs.Nodes(app)
	a := traffic.AppTraffic{App: app, Nodes: nodes, PacketRate: d.Rate}
	if intra := 1 - d.Global - d.MC; intra > 0 {
		a.Components = append(a.Components, traffic.IntraUR(nodes).Weighted(intra))
	}
	if d.Global > 0 {
		var global traffic.Component
		if d.To != nil {
			global = traffic.DirectedTo(d.To)
		} else {
			global = traffic.InterPattern(regs, traffic.PatternByName(cmp.Or(d.Pattern, "UR"), mesh))
		}
		a.Components = append(a.Components, global.Weighted(d.Global))
	}
	if d.MC > 0 {
		a.Components = append(a.Components, traffic.MCCorners(mesh).Weighted(d.MC))
	}
	if d.Rate <= 0 {
		a.PacketRate = d.Load * SatEfficiency * traffic.SaturationRate(mesh, a, satSamples, satSeed)
	}
	return a
}

// Apps builds apps[i] as application i's traffic on regs.
func Apps(regs *region.Map, apps ...App) []traffic.AppTraffic {
	out := make([]traffic.AppTraffic, len(apps))
	for a, d := range apps {
		out[a] = d.Traffic(regs, a)
	}
	return out
}

// Point is one value of an experiment's axis (Axis): its label and the
// RunConfig fields it sets — the scenario's Regions and Apps, and any
// override of the rest (Router, Workers, or a Scheme that replaces the
// axis's).
type Point struct {
	Label string
	RunConfig
}

// scenario is the point running apps on regs.
func scenario(label string, regs *region.Map, apps ...App) Point {
	return Point{Label: label, RunConfig: RunConfig{Regions: regs, Apps: Apps(regs, apps...)}}
}

// Fig9Scenario builds the two-application MSP scenario (Figure 8), labelled
// with p as a percentage: App 0 on the left half at 10% of saturation with
// fraction p of its traffic inter-region (uniform into the right half), App
// 1 on the right half at 90% of saturation, all intra-region.
func Fig9Scenario(p float64) Point {
	regs := region.Halves(Mesh8())
	return scenario(fmt.Sprintf("%.0f%%", 100*p), regs, App{Load: 0.10, Global: p, To: regs.Nodes(1)}, App{Load: 0.90})
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
func Fig12Scenario(v Fig12Variant) Point {
	regs := region.Quadrants(Mesh8())
	apps := []App{{Load: 0.20}, {Load: 0.20}, {Load: 0.20}, {Load: 0.90}}
	// The 30% inter-region share: the low apps' into App 3's region (a), or
	// App 3's uniformly into the other three (b).
	if v == Fig12A {
		for a := range 3 {
			apps[a].Global, apps[a].To = 0.3, regs.Nodes(3)
		}
		return scenario("(a) low apps send into App3", regs, apps...)
	}
	apps[3].Global, apps[3].To = 0.3, slices.Concat(regs.Nodes(0), regs.Nodes(1), regs.Nodes(2))
	return scenario("(b) App3 sends out", regs, apps...)
}

// SixAppLoads are the load fractions of the six-application scenario
// (Figure 13): apps 0, 2, 3, 4 at low-to-medium loads between 10% and 30%
// of saturation, apps 1 and 5 at 90%.
var SixAppLoads = [6]float64{0.10, 0.90, 0.20, 0.30, 0.15, 0.90}

// Fig14Scenario builds the generic six-application RNoC scenario, labelled
// with its global pattern: per app, 75% intra-region uniform random + 20%
// inter-region global traffic with the given pattern ("UR", "TP", "BC",
// "HS") + 5% memory-controller traffic to/from the four corners.
func Fig14Scenario(globalPattern string) Point {
	apps := make([]App, len(SixAppLoads))
	for a, load := range SixAppLoads {
		apps[a] = App{Load: load, Global: 0.20, Pattern: globalPattern, MC: 0.05}
	}
	return scenario(globalPattern, region.SixGrid(Mesh8()), apps...)
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
// at the given fraction of saturation, labelled with it (latency-load
// curves and smoke tests).
func UniformScenario(frac float64) Point {
	return scenario(fmt.Sprintf("%.2f", frac), region.Single(Mesh8()), App{Load: frac})
}

// GridScenario builds a cols×rows region grid on a k×k mesh, labelled with
// the mesh, in the shape of the Figure 11(a) heterogeneity scenario, which
// generalizes to any region count: region 0 runs a heavy intra-region
// application, every other region a light one that sends 30% of its
// traffic into region 0 — the inter-region criticality RAIR's DPA exists to
// protect.
func GridScenario(k, cols, rows int) Point {
	regs := region.Grid(topology.NewMesh(k, k), cols, rows)
	n := regs.NumApps()
	// Normalize the aggregate influx into region 0 across region counts so
	// every point sits at a comparable operating point (3 light regions'
	// worth).
	light := 0.20
	if n-1 > 3 {
		light *= 3 / float64(n-1)
	}
	// 0.80 rather than the scenario-default 0.90: the heavy region must stay
	// below its knee at every mesh size, or the comparison measures
	// saturation behavior instead of interference reduction (larger regions
	// have longer intra-region paths and hit the knee sooner).
	apps := []App{{Load: 0.80}}
	for range n - 1 {
		apps = append(apps, App{Load: light, Global: 0.3, To: regs.Nodes(0)})
	}
	return scenario(fmt.Sprintf("%dx%d", k, k), regs, apps...)
}
