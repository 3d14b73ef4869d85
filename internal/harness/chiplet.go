package harness

import (
	"fmt"

	"rair/internal/region"
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
	apps := make([]App, regs.NumApps())
	// The victim runs at 0.15 rather than the heavier loads of the mesh
	// scenarios: the DPA flips native-high only while foreign occupancy
	// exceeds native occupancy by the hysteresis margin, and the gateway
	// funnel admits at most one foreign flit per cycle — a lightly loaded
	// victim keeps OVC_n low enough for the boundary routers to detect and
	// gate the foreign flood.
	apps[0] = App{Load: 0.15}
	for a := 1; a < len(apps); a++ {
		apps[a] = App{Load: aggrFrac, Global: 0.3, To: far}
	}
	return regs, Apps(regs, apps...)
}

// ChipletAggrFrac is the aggressor operating point of the chiplet co-run:
// low enough that the aggregate foreign influx stays within the victim
// gateway's serialization bandwidth (the experiment measures boundary
// interference, not an overdriven crossbar queue), high enough that the
// foreign flits contend measurably inside the victim tile.
const ChipletAggrFrac = 0.45

// ChipletSynth runs the chiplet co-run across the scheme panel: per scheme,
// the victim alone on chiplet 0 and the victim under the three
// cross-boundary aggressors, all points in parallel.
func ChipletSynth(dur Durations, seed uint64) *Panel {
	cs := ChipletQuad()
	regs, apps := ChipletScenario(cs, ChipletAggrFrac)
	title := fmt.Sprintf("Chiplet boundary co-run (%dx%d package of %dx%d tiles): victim on chiplet 0",
		cs.ChipsX, cs.ChipsY, cs.K, cs.K)
	return coRunPanel(title, ComparedSchemes([]int{0, 1, 2, 3}), []string{"victim"},
		func(_ int, s Scheme) (alone, co RunConfig) {
			alone = RunConfig{Regions: regs, Router: synthCfg(), Apps: apps[:1], Scheme: s, Dur: dur, Seed: seed, Chiplets: cs}
			co = alone
			co.Apps = apps
			return alone, co
		})
}

// ChipletTable renders ChipletSynth: the victim's APL alone and in the
// co-run, the slowdown, and its p99 total latency in the co-run.
func (p *Panel) ChipletTable() *Table {
	t := &Table{Title: p.Title, Header: []string{"scheme", "base apl", "co apl", "slowdown", "co p99"}}
	for ri, label := range p.Labels {
		// Slowdown gets three decimals: the calibrated boundary-gating
		// margin the chiplet-synth guards check is below the 0.01
		// resolution the other tables round to.
		t.AddRow(label, f2(p.Base[ri][0]), f2(p.APL[ri][0]), fmt.Sprintf("%.3f", p.Slowdown(ri, 0)),
			f2(p.Cols[ri].App(0).Percentile(99)))
	}
	return t
}
