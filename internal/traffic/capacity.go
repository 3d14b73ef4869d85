package traffic

import (
	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
)

// SaturationRate estimates the saturation injection rate of an application's
// traffic description, in packets per node per cycle: the rate at which the
// most loaded channel (including injection and ejection channels, which
// bound hotspot traffic) reaches one flit per cycle under XY routing.
//
// The estimate uses Monte Carlo sampling of the app's (src, dst)
// distribution and is the reference the harness uses to configure scenarios
// as "x% of saturation load", the way the paper specifies its workloads.
// Adaptive routing typically saturates slightly later than XY, so fractions
// of this estimate are mildly conservative — which only matters at the 90%
// operating points, where being near (not precisely at) saturation is the
// experimental intent.
func SaturationRate(mesh *topology.Mesh, app AppTraffic, samples int, seed uint64) float64 {
	if samples < 1 || len(app.Nodes) == 0 {
		return 0
	}
	rng := sim.NewRNG(seed)
	// Directed channel load accumulators: [node][dir] for router-to-router
	// channels, plus injection and ejection channels per node.
	chans := make([][]float64, mesh.N())
	for i := range chans {
		chans[i] = make([]float64, topology.NumDirs)
	}
	inj := make([]float64, mesh.N())
	ej := make([]float64, mesh.N())

	avgFlits := float64(msg.ShortPacketFlits)*shortFrac + float64(msg.LongPacketFlits)*(1-shortFrac)
	draws := 0
	for _, node := range app.Nodes {
		for s := 0; s < samples; s++ {
			src, dst := app.draw(node, rng)
			draws++
			if src == dst {
				continue
			}
			inj[src] += avgFlits
			ej[dst] += avgFlits
			cur := src
			for cur != dst {
				d := mesh.XYDir(cur, dst)
				chans[cur][d] += avgFlits
				cur = mesh.Neighbor(cur, d)
			}
		}
	}
	// Events occur at rate r per app node per cycle: total event rate is
	// r*len(Nodes); each sampled draw represents a fraction
	// len(Nodes)/draws of that total.
	perDraw := float64(len(app.Nodes)) / float64(draws)
	maxLoad := 0.0
	for n := 0; n < mesh.N(); n++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if l := chans[n][d] * perDraw; l > maxLoad {
				maxLoad = l
			}
		}
		if l := inj[n] * perDraw; l > maxLoad {
			maxLoad = l
		}
		if l := ej[n] * perDraw; l > maxLoad {
			maxLoad = l
		}
	}
	if maxLoad == 0 {
		return 0
	}
	return 1 / maxLoad
}
