package traffic

import (
	"slices"

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
	// Difference arrays of route counts per directed channel, East/West by
	// node row-major (y*W+x) and North/South column-major (x*H+y): an XY leg
	// is one run, +1 at its first channel and -1 one past its last.
	n := mesh.N()
	east, west, south, north := make([]int, n+1), make([]int, n+1), make([]int, n+1), make([]int, n+1)
	inj, ej := make([]int, n), make([]int, n)
	run := func(c []int, from, to int) { c[from]++; c[to]-- }
	t := app.totalWeight()
	for _, node := range app.Nodes {
		for s := 0; s < samples; s++ {
			src, dst := app.draw(node, t, rng)
			if src == dst {
				continue
			}
			inj[src]++
			ej[dst]++
			cs, cd := mesh.Coord(src), mesh.Coord(dst)
			row, col := cs.Y*mesh.W, cd.X*mesh.H
			if cd.X > cs.X {
				run(east, row+cs.X, row+cd.X)
			} else if cd.X < cs.X {
				run(west, row+cd.X+1, row+cs.X+1)
			}
			if cd.Y > cs.Y {
				run(south, col+cs.Y, col+cd.Y)
			} else if cd.Y < cs.Y {
				run(north, col+cd.Y+1, col+cs.Y+1)
			}
		}
	}
	maxCount := max(slices.Max(inj), slices.Max(ej))
	for _, c := range [][]int{east, west, south, north} {
		sum := 0
		for _, v := range c {
			sum += v
			maxCount = max(maxCount, sum)
		}
	}
	if maxCount == 0 {
		return 0
	}
	// Each of a node's samples stands for 1/samples of its r events per
	// cycle. count*avgFlits is exact (avgFlits is 3) and rounding is
	// monotone, so this equals summing avgFlits per route and scaling every
	// channel (TestSaturationRateMatchesWalk).
	avgFlits := float64(msg.ShortPacketFlits)*shortFrac + float64(msg.LongPacketFlits)*(1-shortFrac)
	perDraw := 1 / float64(samples)
	return 1 / (float64(maxCount) * avgFlits * perDraw)
}
