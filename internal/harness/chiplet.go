package harness

import (
	"fmt"
	"runtime"

	"rair/internal/region"
	"rair/internal/stats"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// ChipletQuad is the standard chiplet evaluation topology: a 2×2 package of
// 4×4 tiles (64 routers), one RAIR region per chiplet.
func ChipletQuad() *topology.Chiplets { return topology.NewChiplets(2, 2, 4) }

// ChipletRegions maps one region per chiplet. region.Grid's row-major
// rectangle numbering matches Chiplets.ChipOf, so app i occupies chip i
// (asserted by TestChipletRegionAlignment).
func ChipletRegions(cs *topology.Chiplets) *region.Map {
	return region.Grid(cs.Mesh(), cs.ChipsX, cs.ChipsY)
}

// ChipletScenario builds the cross-boundary co-run: the victim application
// on chiplet 0 running intra-tile uniform-random, and an aggressor per
// remaining chiplet at aggrFrac of saturation sending 30% of its traffic at
// the victim nodes farthest from the victim's gateway — traffic that must
// cross the package switch, enter chiplet 0 through its gateway, and then
// traverse the long diagonal of the victim tile, the interference path
// RAIR's boundary gating is supposed to contain. (Targeting the far corner
// rather than the whole tile keeps the foreign flits on victim links for
// many hops; a gateway-adjacent target would barely touch the tile.)
func ChipletScenario(cs *topology.Chiplets, aggrFrac float64) (*region.Map, []traffic.AppTraffic) {
	mesh := cs.Mesh()
	regs := ChipletRegions(cs)
	gw := cs.Gateway(0)
	var far []int
	for _, v := range regs.Nodes(0) {
		if mesh.Distance(gw, v) >= cs.K {
			far = append(far, v)
		}
	}
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
			// 0.15 rather than the heavier loads of the mesh scenarios:
			// the DPA flips native-high only while foreign occupancy
			// exceeds native occupancy by the hysteresis margin, and the
			// gateway funnel admits at most one foreign flit per cycle —
			// a lightly loaded victim keeps OVC_n low enough for the
			// boundary routers to detect and gate the foreign flood.
			app.PacketRate = Rate(mesh, app, 0.15)
		} else {
			app = traffic.AppTraffic{
				App: a, Nodes: nodes,
				Components: []traffic.Component{
					{Weight: 0.7, Draw: traffic.IntraUR(nodes).Draw},
					{Weight: 0.3, Draw: traffic.DirectedTo(far).Draw},
				},
			}
			app.PacketRate = Rate(mesh, app, aggrFrac)
		}
		apps[a] = app
	}
	return regs, apps
}

// ChipletAggrFrac is the aggressor operating point of the chiplet co-run:
// low enough that the aggregate foreign influx stays within the victim
// gateway's serialization bandwidth (the experiment measures boundary
// interference, not an overdriven crossbar queue), high enough that the
// foreign flits contend measurably inside the victim tile.
const ChipletAggrFrac = 0.45

// ChipletResult holds the chiplet boundary-interference comparison: per
// scheme, the victim's APL alone and under cross-chiplet aggression.
type ChipletResult struct {
	Title   string
	Schemes []string
	Base    []float64 // victim APL, victim alone
	Co      []float64 // victim APL, aggressors on the other chiplets
	P99     []float64 // victim p99 total latency in the co-run
}

// Slowdown is the victim APL slowdown under scheme si.
func (r *ChipletResult) Slowdown(si int) float64 {
	return stats.Slowdown(r.Base[si], r.Co[si])
}

// Table renders the comparison.
func (r *ChipletResult) Table() *Table {
	t := &Table{
		Title:  r.Title,
		Header: []string{"scheme", "base apl", "co apl", "slowdown", "co p99"},
	}
	for si, s := range r.Schemes {
		// Slowdown gets three decimals: the calibrated boundary-gating
		// margin the chiplet-smoke guards check is below the 0.01
		// resolution the other tables round to.
		t.AddRow(s, f2(r.Base[si]), f2(r.Co[si]), fmt.Sprintf("%.3f", r.Slowdown(si)), f2(r.P99[si]))
	}
	return t
}

// ChipletSynth runs the chiplet co-run across the scheme panel: per scheme,
// the victim alone on chiplet 0 (base) and the victim under the three
// cross-boundary aggressors (co), all points in parallel.
func ChipletSynth(dur Durations, seed uint64) *ChipletResult {
	cs := ChipletQuad()
	regs, apps := ChipletScenario(cs, ChipletAggrFrac)
	schemes := []Scheme{RORR(), RORRDBAR("RA_DBAR"), RORank([]int{0, 1, 2, 3}), RAIR("RA_RAIR")}
	res := &ChipletResult{
		Title: fmt.Sprintf("Chiplet boundary co-run (%dx%d package of %dx%d tiles): victim on chiplet 0",
			cs.ChipsX, cs.ChipsY, cs.K, cs.K),
	}
	var rcs []RunConfig
	for _, s := range schemes {
		base := RunConfig{Regions: regs, Router: synthCfg(), Apps: apps[:1],
			Scheme: s, Dur: dur, Seed: seed, Chiplets: cs}
		co := base
		co.Apps = apps
		rcs = append(rcs, base, co)
	}
	cols := RunParallel(rcs)
	for si, s := range schemes {
		res.Schemes = append(res.Schemes, s.Name)
		res.Base = append(res.Base, cols[2*si].App(0).Mean())
		res.Co = append(res.Co, cols[2*si+1].App(0).Mean())
		res.P99 = append(res.P99, cols[2*si+1].App(0).Percentile(99))
	}
	return res
}

// ScaleBigMesh extends the Section VI scalability study to large meshes: a
// 4×4 region grid at each mesh size, run on the sharded tick engine (the
// serial engine would dominate wall clock at 4096 routers).
func ScaleBigMesh(ks []int, dur Durations, seed uint64) *ScaleResult {
	res := &ScaleResult{Title: "Scalability: big meshes (16-region grid, sharded engine)"}
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	for _, k := range ks {
		mesh := topology.NewMesh(k, k)
		regs, apps := gridScenario(mesh, 4, 4)
		res.Points = append(res.Points,
			scalePointW(fmt.Sprintf("%dx%d", k, k), regs, apps, dur, seed, workers))
	}
	return res
}
