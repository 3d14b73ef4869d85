package network

import (
	"fmt"
	"strings"

	"rair/internal/topology"
)

// UtilizationHeatmap renders an ASCII heatmap of each router's busiest
// output link over the given cycle count: '.' for idle through '9' for a
// link at ≥90% utilization. A quick visual check of where congestion
// concentrates (hot regions, MC corners).
func (n *Network) UtilizationHeatmap(cycles int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "per-router max output-link utilization over %d cycles\n", cycles)
	for y := 0; y < n.mesh.H; y++ {
		for x := 0; x < n.mesh.W; x++ {
			r := n.routers[n.mesh.ID(topology.Coord{X: x, Y: y})]
			var max int64
			for d := topology.North; d < topology.NumDirs; d++ {
				if f := r.FlitsSent(d); f > max {
					max = f
				}
			}
			u := 0.0
			if cycles > 0 {
				u = float64(max) / float64(cycles)
			}
			switch {
			case u < 0.05:
				b.WriteByte('.')
			case u >= 0.95:
				b.WriteByte('9')
			default:
				b.WriteByte(byte('0' + int(u*10)))
			}
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}
