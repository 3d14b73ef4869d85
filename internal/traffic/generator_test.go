package traffic

import (
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// event is what a generated packet carries, with the cycle it was made in.
type event struct {
	now                 int64
	id                  uint64
	app, src, dst, size int
}

// refTick is the generator's per-node loop before NextHit: one Bool trial
// per node per cycle and the component total summed on every draw. Tick
// must make exactly its packets and leave the RNG where it leaves it.
func refTick(apps []AppTraffic, rng *sim.RNG, nextID *uint64, now int64, out []event) []event {
	for ai := range apps {
		a := &apps[ai]
		for _, node := range a.Nodes {
			if !rng.Bool(a.PacketRate) {
				continue
			}
			src, dst := a.draw(node, a.totalWeight(), rng)
			if src == dst {
				continue
			}
			size := msg.LongPacketFlits
			if rng.Bool(shortFrac) {
				size = msg.ShortPacketFlits
			}
			*nextID++
			out = append(out, event{now, *nextID, a.App, src, dst, size})
		}
	}
	return out
}

// quadApps is the quadrant scenario of the throughput probes: four apps,
// 80 % intra-region and 20 % inter-region uniform random, each at frac of
// 0.7 × its saturation rate.
func quadApps(m *topology.Mesh, frac float64) []AppTraffic {
	regs := region.Quadrants(m)
	ur := PatternByName("UR", m)
	apps := make([]AppTraffic, 4)
	for a := range apps {
		nodes := regs.Nodes(a)
		apps[a] = AppTraffic{App: a, Nodes: nodes,
			Components: []Component{IntraUR(nodes).Weighted(0.8), InterPattern(regs, ur).Weighted(0.2)}}
		apps[a].PacketRate = frac * 0.7 * SaturationRate(m, apps[a], 1000, 0xfeed)
	}
	return apps
}

// sixApps is the paper's six-application scenario (Figure 13): 75 %
// intra-region, 20 % inter-region and 5 % corner memory-controller traffic.
func sixApps(m *topology.Mesh) []AppTraffic {
	regs := region.SixGrid(m)
	ur := PatternByName("UR", m)
	loads := []float64{0.10, 0.90, 0.20, 0.30, 0.15, 0.90}
	apps := make([]AppTraffic, len(loads))
	for a := range apps {
		nodes := regs.Nodes(a)
		apps[a] = AppTraffic{App: a, Nodes: nodes, Components: []Component{
			IntraUR(nodes).Weighted(0.75), InterPattern(regs, ur).Weighted(0.20), MCCorners(m).Weighted(0.05)}}
		apps[a].PacketRate = loads[a] * 0.7 * SaturationRate(m, apps[a], 1000, 0xfeed)
	}
	return apps
}

func TestGeneratorMatchesBoolLoop(t *testing.T) {
	m := mesh8()
	// Rates 0 and 1.5, and component totals of 1, 3 and 1 in turn, so a
	// total carried over from another app moves the component choice.
	a, b, c := []int{0, 1, 2, 3}, []int{4, 5, 6, 7}, []int{8, 9, 10, 11}
	edges := []AppTraffic{
		{App: 0, Nodes: a, PacketRate: 0, Components: []Component{IntraUR(a)}},
		{App: 1, Nodes: b, PacketRate: 1.5, Components: []Component{IntraUR(b).Weighted(2), DirectedTo(a)}},
		{App: 2, Nodes: c, PacketRate: 1.5, Components: []Component{IntraUR(c).Weighted(0.5), DirectedTo(b).Weighted(0.5)}},
	}
	for _, c := range []struct {
		name string
		apps []AppTraffic
	}{
		{"quad8", quadApps(m, 0.5)},
		{"six-app", sixApps(m)},
		{"fig17-adversary", []AppTraffic{Adversary(m, 7, 0.16/3)}},
		{"rates-0-and-1.5", edges},
	} {
		t.Run(c.name, func(t *testing.T) {
			const seed, cycles = 11, 20000
			var got []event
			g := NewGenerator(c.apps, seed, func(_ int, p *msg.Packet, now int64) {
				got = append(got, event{now, p.ID, p.App, p.Src, p.Dst, p.Size})
			})
			rng, nextID := sim.NewRNG(seed), uint64(0)
			var want []event
			for now := int64(0); now < cycles; now++ {
				g.Tick(now)
				want = refTick(c.apps, rng, &nextID, now, want)
				if len(got) != len(want) {
					t.Fatalf("cycle %d: %d packets, reference %d", now, len(got), len(want))
				}
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packet %d: %+v, reference %+v", i, got[i], want[i])
				}
			}
			if g.rng.Uint64() != rng.Uint64() {
				t.Fatal("RNG streams diverged after the last cycle")
			}
			if len(want) == 0 {
				t.Fatal("the scenario made no packets")
			}
		})
	}
}

// BenchmarkGeneratorTick times one cycle of the lowload8 source: four
// quadrant apps at 5 % of 0.7 × saturation on 8×8, with packets recycled
// as the network would.
func BenchmarkGeneratorTick(b *testing.B) {
	pool := msg.NewPool()
	g := NewGenerator(quadApps(mesh8(), 0.05), 1, func(_ int, p *msg.Packet, _ int64) { pool.Put(p) })
	g.Pool = pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Tick(int64(i))
	}
}
