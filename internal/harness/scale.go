package harness

import (
	"fmt"
	"runtime"

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
	// Normalize the aggregate influx into region 0 across region counts so
	// every point sits at a comparable operating point (3 light regions'
	// worth).
	light := 0.20
	if n-1 > 3 {
		light *= 3 / float64(n-1)
	}
	apps := make([]traffic.AppTraffic, n)
	// 0.80 rather than the scenario-default 0.90: the heavy region must stay
	// below its knee at every mesh size, or the comparison measures
	// saturation behavior instead of interference reduction (larger regions
	// have longer intra-region paths and hit the knee sooner).
	apps[0] = mix(regs, 0, 0.80, 1)
	for a := 1; a < n; a++ {
		apps[a] = mix(regs, a, light, 0.7, traffic.DirectedTo(regs.Nodes(0)).Weighted(0.3))
	}
	return regs, apps
}

// scaleMeshes measures a cols×rows region grid on each k×k mesh.
func scaleMeshes(title string, ks []int, cols, rows, workers int, dur Durations, seed uint64) *ScaleResult {
	res := &ScaleResult{Title: title}
	for _, k := range ks {
		regs, apps := gridScenario(topology.NewMesh(k, k), cols, rows)
		res.Points = append(res.Points, scalePoint(fmt.Sprintf("%dx%d", k, k), regs, apps, dur, seed, workers))
	}
	return res
}

// ScaleCores studies Section VI's first scalability dimension: mesh sizes
// from 4×4 to 16×16 with four quadrant regions. RAIR keeps per-router state
// constant, so its benefit should persist as the chip grows.
func ScaleCores(dur Durations, seed uint64) *ScaleResult {
	return scaleMeshes("Scalability: mesh size (4 quadrant regions)", []int{4, 8, 12, 16}, 2, 2, 0, dur, seed)
}

// ScaleBigMesh extends the study to large meshes: a 4×4 region grid at each
// mesh size, run on the sharded tick engine (the serial engine would
// dominate wall clock at 4096 routers).
func ScaleBigMesh(ks []int, dur Durations, seed uint64) *ScaleResult {
	workers := min(runtime.GOMAXPROCS(0), 8)
	return scaleMeshes("Scalability: big meshes (16-region grid, sharded engine)", ks, 4, 4, workers, dur, seed)
}

// ScaleRegions studies the second dimension: region counts from 2 to 16 on
// the 8×8 mesh. Each router tracks only two flows (native/foreign), so the
// region count should not erode the benefit.
func ScaleRegions(dur Durations, seed uint64) *ScaleResult {
	res := &ScaleResult{Title: "Scalability: region count (8x8 mesh)"}
	for _, g := range [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		regs, apps := gridScenario(Mesh8(), g[0], g[1])
		res.Points = append(res.Points, scalePoint(fmt.Sprintf("%d regions", g[0]*g[1]), regs, apps, dur, seed, 0))
	}
	return res
}

// scalePoint measures one scenario under RO_RR and RA_RAIR with workers
// tick-engine shards per run (0 = serial; big-mesh points shard the engine
// instead of relying on cross-run parallelism).
func scalePoint(label string, regs *region.Map, apps []traffic.AppTraffic, dur Durations, seed uint64, workers int) ScalePoint {
	var rcs []RunConfig
	for _, s := range []Scheme{RORR(), RAIR("RA_RAIR")} {
		rc := synthRun(regs, apps, s, dur, seed)
		rc.Workers = workers
		rcs = append(rcs, rc)
	}
	panel := runPanel("", nil, rcs, appNames("App", len(apps)))
	apl := func(ri, ai int) float64 { return panel.APL[ri][ai] }
	return ScalePoint{
		Label:        label,
		Nodes:        regs.Mesh().N(),
		Regions:      regs.NumApps(),
		RORRAPL:      panel.appMean(0, apl),
		RAIRAPL:      panel.appMean(1, apl),
		AvgReduction: panel.AvgReduction(1),
	}
}
