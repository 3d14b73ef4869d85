package harness

import (
	"fmt"

	"rair/internal/region"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// ScalePoint is one measurement of the scalability study.
type ScalePoint struct {
	Label        string
	Nodes        int
	Regions      int
	RORRAPL      float64
	RAIRAPL      float64
	AvgReduction float64 // mean per-app APL reduction of RAIR vs RO_RR
}

// ScaleResult collects the Section VI scalability study.
type ScaleResult struct {
	Title  string
	Points []ScalePoint
}

// Table renders the study.
func (r *ScaleResult) Table() *Table {
	t := &Table{Title: r.Title, Header: []string{"config", "nodes", "regions", "RO_RR APL", "RA_RAIR APL", "avg reduction"}}
	for _, p := range r.Points {
		t.AddRow(p.Label, fmt.Sprintf("%d", p.Nodes), fmt.Sprintf("%d", p.Regions),
			f2(p.RORRAPL), f2(p.RAIRAPL), pct(p.AvgReduction))
	}
	return t
}

// gridScenario builds a cols×rows region grid on the mesh in the shape of
// the Figure 11(a) heterogeneity scenario, which generalizes to any region
// count: region 0 runs a heavy intra-region application (90% of
// saturation), every other region a light one (20%) that sends 30% of its
// traffic into region 0 — the inter-region criticality RAIR's DPA exists to
// protect.
func gridScenario(mesh *topology.Mesh, cols, rows int) (*region.Map, []traffic.AppTraffic) {
	regs := region.Grid(mesh, cols, rows)
	n := regs.NumApps()
	apps := make([]traffic.AppTraffic, n)
	for a := 0; a < n; a++ {
		nodes := regs.Nodes(a)
		var app traffic.AppTraffic
		if a == 0 {
			app = traffic.AppTraffic{
				App: a, Nodes: nodes,
				Components: []traffic.Component{traffic.IntraUR(nodes)},
			}
			// 0.80 rather than the scenario-default 0.90: the heavy
			// region must stay below its knee at every mesh size, or
			// the comparison measures saturation behavior instead of
			// interference reduction (larger regions have longer
			// intra-region paths and hit the knee sooner).
			app.PacketRate = Rate(mesh, app, 0.80)
		} else {
			app = traffic.AppTraffic{
				App: a, Nodes: nodes,
				Components: []traffic.Component{
					{Weight: 0.7, Draw: traffic.IntraUR(nodes).Draw},
					{Weight: 0.3, Draw: traffic.DirectedTo(regs.Nodes(0)).Draw},
				},
			}
			// Normalize the aggregate influx into region 0 across
			// region counts so every point sits at a comparable
			// operating point (3 light regions' worth).
			frac := 0.20
			if n-1 > 3 {
				frac *= 3 / float64(n-1)
			}
			app.PacketRate = Rate(mesh, app, frac)
		}
		apps[a] = app
	}
	return regs, apps
}

// ScaleCores studies Section VI's first scalability dimension: mesh sizes
// from 4×4 to 16×16 with four quadrant regions. RAIR keeps per-router state
// constant, so its benefit should persist as the chip grows.
func ScaleCores(dur Durations, seed uint64) *ScaleResult {
	res := &ScaleResult{Title: "Scalability: mesh size (4 quadrant regions)"}
	for _, k := range []int{4, 8, 12, 16} {
		mesh := topology.NewMesh(k, k)
		regs, apps := gridScenario(mesh, 2, 2)
		res.Points = append(res.Points, scalePoint(fmt.Sprintf("%dx%d", k, k), regs, apps, dur, seed))
	}
	return res
}

// ScaleRegions studies the second dimension: region counts from 2 to 16 on
// the 8×8 mesh. Each router tracks only two flows (native/foreign), so the
// region count should not erode the benefit.
func ScaleRegions(dur Durations, seed uint64) *ScaleResult {
	res := &ScaleResult{Title: "Scalability: region count (8x8 mesh)"}
	for _, g := range [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		mesh := Mesh8()
		regs, apps := gridScenario(mesh, g[0], g[1])
		label := fmt.Sprintf("%d regions", g[0]*g[1])
		res.Points = append(res.Points, scalePoint(label, regs, apps, dur, seed))
	}
	return res
}

func scalePoint(label string, regs *region.Map, apps []traffic.AppTraffic, dur Durations, seed uint64) ScalePoint {
	return scalePointW(label, regs, apps, dur, seed, 0)
}

// scalePointW is scalePoint with an explicit tick-engine worker count per
// run (0 = serial); big-mesh points shard the engine instead of relying on
// cross-run parallelism.
func scalePointW(label string, regs *region.Map, apps []traffic.AppTraffic, dur Durations, seed uint64, workers int) ScalePoint {
	schemes := []Scheme{RORR(), RAIR("RA_RAIR")}
	rcs := make([]RunConfig, len(schemes))
	for i, s := range schemes {
		rcs[i] = RunConfig{Regions: regs, Router: synthCfg(), Apps: apps,
			Scheme: s, Dur: dur, Seed: seed, Workers: workers}
	}
	cols := RunParallel(rcs)
	fig := figFromCols(regs, apps, schemes, cols)
	p := ScalePoint{
		Label:        label,
		Nodes:        regs.Mesh().N(),
		Regions:      regs.NumApps(),
		AvgReduction: fig.AvgReduction(1),
	}
	for ai := range fig.Apps {
		p.RORRAPL += fig.APL[0][ai]
		p.RAIRAPL += fig.APL[1][ai]
	}
	p.RORRAPL /= float64(len(fig.Apps))
	p.RAIRAPL /= float64(len(fig.Apps))
	return p
}
