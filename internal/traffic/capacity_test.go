package traffic

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// xyStep is the dimension-ordered hop from cur toward dst (X first, then
// Y), or Local at dst.
func xyStep(m *topology.Mesh, cur, dst int) topology.Dir {
	cc, cd := m.Coord(cur), m.Coord(dst)
	switch {
	case cd.X > cc.X:
		return topology.East
	case cd.X < cc.X:
		return topology.West
	case cd.Y > cc.Y:
		return topology.South
	case cd.Y < cc.Y:
		return topology.North
	}
	return topology.Local
}

// walkSaturationRate is SaturationRate in its hop-by-hop form: every
// sampled route is walked with xyStep and each channel on it accumulates
// avgFlits as a float. It is the reference the difference-array form must
// reproduce bit for bit.
func walkSaturationRate(mesh *topology.Mesh, app AppTraffic, samples int, seed uint64) float64 {
	if samples < 1 || len(app.Nodes) == 0 {
		return 0
	}
	rng := sim.NewRNG(seed)
	chans := make([][topology.NumDirs]float64, mesh.N())
	inj := make([]float64, mesh.N())
	ej := make([]float64, mesh.N())
	avgFlits := float64(msg.ShortPacketFlits)*shortFrac + float64(msg.LongPacketFlits)*(1-shortFrac)
	draws := 0
	for _, node := range app.Nodes {
		for s := 0; s < samples; s++ {
			src, dst := app.draw(node, app.totalWeight(), rng)
			draws++
			if src == dst {
				continue
			}
			inj[src] += avgFlits
			ej[dst] += avgFlits
			for cur := src; cur != dst; {
				d := xyStep(mesh, cur, dst)
				chans[cur][d] += avgFlits
				cur = mesh.Neighbor(cur, d)
			}
		}
	}
	perDraw := float64(len(app.Nodes)) / float64(draws)
	maxLoad := 0.0
	for n := range chans {
		for _, l := range append(chans[n][:], inj[n], ej[n]) {
			maxLoad = max(maxLoad, l*perDraw)
		}
	}
	if maxLoad == 0 {
		return 0
	}
	return 1 / maxLoad
}

// layouts returns every predefined region layout that fits m.
func layouts(m *topology.Mesh) []*region.Map {
	var out []*region.Map
	for _, build := range []func(*topology.Mesh) *region.Map{
		region.Single, region.Halves, region.Quadrants, region.SixGrid,
		func(m *topology.Mesh) *region.Map { return region.Grid(m, min(4, m.W), min(4, m.H)) },
	} {
		func() {
			defer func() { _ = recover() }() // the layout does not fit m
			out = append(out, build(m))
		}()
	}
	return out
}

// TestSaturationRateMatchesWalk holds SaturationRate's difference arrays
// to the hop-by-hop walk, bit for bit, over mesh shapes, layouts, every
// component kind, node lists with repeats and of one node, and sample
// counts.
func TestSaturationRateMatchesWalk(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cases := 0
	for _, dims := range [][2]int{{8, 8}, {4, 4}, {1, 6}, {6, 1}, {5, 3}, {3, 7}} {
		m := topology.NewMesh(dims[0], dims[1])
		for _, regs := range layouts(m) {
			for a := 0; a < regs.NumApps(); a++ {
				nodes := regs.Nodes(a)
				// A random funnel: a few destinations, repeats allowed,
				// anywhere on the mesh.
				funnel := make([]int, 1+r.Intn(3))
				for i := range funnel {
					funnel[i] = r.Intn(m.N())
				}
				comps := []Component{IntraUR(nodes), DirectedTo(funnel), MCCorners(m)}
				for _, name := range PatternNames {
					comps = append(comps, InterPattern(regs, PatternByName(name, m)))
				}
				mixes := [][]Component{{comps[0].Weighted(0.6), comps[2].Weighted(0.1), comps[3].Weighted(0.3)}}
				for _, c := range comps {
					mixes = append(mixes, []Component{c})
				}
				repeated := append(slices.Clone(nodes), nodes[len(nodes)/2:]...)
				for _, list := range [][]int{nodes, repeated, nodes[:1]} {
					for mi, mix := range mixes {
						app := AppTraffic{Nodes: list, Components: mix}
						for _, samples := range []int{1, 7, 1000} {
							cases++
							seed := uint64(cases)
							got, want := SaturationRate(m, app, samples, seed), walkSaturationRate(m, app, samples, seed)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("%dx%d, %d regions, app %d, %d nodes, mix %d, %d samples: %v, walk %v",
									m.W, m.H, regs.NumApps(), a, len(list), mi, samples, got, want)
							}
						}
					}
				}
			}
		}
	}
	if cases < 3000 {
		t.Fatalf("only %d cases", cases)
	}
}

// scanDest is Uniform.Dest by a linear first-occurrence scan.
func scanDest(nodes []int, src int, rng *sim.RNG) int {
	n := len(nodes)
	if n == 0 {
		return src
	}
	pos := slices.Index(nodes, src)
	if pos < 0 {
		return nodes[rng.Intn(n)]
	}
	if n == 1 {
		return src
	}
	idx := rng.Intn(n - 1)
	if idx >= pos {
		idx++
	}
	return nodes[idx]
}

// TestUniformMatchesScan: the indexed Dest returns what the scan returns
// and leaves the RNG where the scan leaves it, on random lists with
// repeats (ids below 12), for present and absent sources (ids up to 15),
// and on the list's first node alone and on no nodes.
func TestUniformMatchesScan(t *testing.T) {
	prop := func(raw []uint8, src uint8, seed uint64) bool {
		nodes := make([]int, len(raw))
		for i, v := range raw {
			nodes[i] = int(v % 12)
		}
		s := int(src % 16)
		for _, list := range [][]int{nodes, nodes[:min(1, len(nodes))], nil} {
			u := NewUniform(list)
			a, b := sim.NewRNG(seed), sim.NewRNG(seed)
			for i := 0; i < 4; i++ {
				if u.Dest(s, a) != scanDest(list, s, b) || a.Uint64() != b.Uint64() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

var satSink float64

// BenchmarkSaturationRate calibrates every app of the quadrant scenario
// (80 % intra-region, 20 % inter-region uniform random) at 8×8, 32×32 and
// 64×64, and every app of the 16-region grid at 64×64 (the scale
// experiment's mix: region 0 intra-region only, the others 70 % intra and
// 30 % into region 0), at the harness's 1,000 samples per node.
func BenchmarkSaturationRate(b *testing.B) {
	for _, c := range []struct {
		name       string
		edge, grid int
	}{{"quadrants8", 8, 2}, {"quadrants32", 32, 2}, {"quadrants64", 64, 2}, {"grid16-64", 64, 4}} {
		m := topology.NewMesh(c.edge, c.edge)
		regs := region.Grid(m, c.grid, c.grid)
		var apps []AppTraffic
		for a := 0; a < regs.NumApps(); a++ {
			nodes := regs.Nodes(a)
			comps := []Component{IntraUR(nodes).Weighted(0.8), InterPattern(regs, PatternByName("UR", m)).Weighted(0.2)}
			if c.grid == 4 {
				comps = []Component{IntraUR(nodes).Weighted(0.7), DirectedTo(regs.Nodes(0)).Weighted(0.3)}
				if a == 0 {
					comps = comps[:1]
				}
			}
			apps = append(apps, AppTraffic{App: a, Nodes: nodes, Components: comps})
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, app := range apps {
					satSink = SaturationRate(m, app, 1000, 0xfeed)
				}
			}
		})
	}
}
