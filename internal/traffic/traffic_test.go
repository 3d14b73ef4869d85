package traffic

import (
	"math"
	"testing"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

func mesh8() *topology.Mesh { return topology.NewMesh(8, 8) }

func TestUniformExcludesSelf(t *testing.T) {
	u := NewUniform([]int{3, 7})
	rng := sim.NewRNG(1)
	for i := 0; i < 100; i++ {
		if d := u.Dest(3, rng); d != 7 {
			t.Fatalf("dest = %d", d)
		}
	}
	// Single-node set can only return that node.
	one := NewUniform([]int{5})
	if one.Dest(5, rng) != 5 {
		t.Fatal("single-node set")
	}
	// Empty set returns src (callers skip it).
	if NewUniform(nil).Dest(9, rng) != 9 {
		t.Fatal("empty set")
	}
}

func TestUniformCoversNodes(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 4}
	u := NewUniform(nodes)
	rng := sim.NewRNG(2)
	seen := map[int]int{}
	for i := 0; i < 5000; i++ {
		seen[u.Dest(0, rng)]++
	}
	for _, n := range nodes[1:] {
		if seen[n] < 800 {
			t.Fatalf("node %d drawn %d times", n, seen[n])
		}
	}
	if seen[0] > 100 {
		t.Fatalf("self drawn %d times", seen[0])
	}
}

func TestDeterministicPatterns(t *testing.T) {
	m := mesh8()
	tp := Transpose{Mesh: m}
	if tp.Dest(m.ID(topology.Coord{X: 2, Y: 5}), nil) != m.ID(topology.Coord{X: 5, Y: 2}) {
		t.Fatal("transpose")
	}
	bc := BitComplement{Mesh: m}
	if bc.Dest(0, nil) != 63 {
		t.Fatal("bit complement")
	}
}

func TestHotspot(t *testing.T) {
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	h := Hotspot{Hotspots: []int{0}, Frac: 0.5, Background: NewUniform(all)}
	rng := sim.NewRNG(3)
	hits := 0
	const trials = 10000
	for i := 0; i < trials; i++ {
		if h.Dest(30, rng) == 0 {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-0.5) > 0.03 { // 0.5 hotspot + tiny UR mass on node 0
		t.Fatalf("hotspot fraction %v", frac)
	}
}

func TestInterRegionAlwaysGlobal(t *testing.T) {
	regs := region.Quadrants(mesh8())
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	p := InterRegion{Base: NewUniform(all), Regions: regs}
	rng := sim.NewRNG(4)
	for i := 0; i < 2000; i++ {
		src := rng.Intn(64)
		d := p.Dest(src, rng)
		if d == src || !regs.Global(src, d) {
			t.Fatalf("draw %d: %d->%d not global", i, src, d)
		}
	}
}

func TestInterRegionPreservesCrossPattern(t *testing.T) {
	// Transpose from (1,6) already crosses quadrants; it must be kept.
	m := mesh8()
	regs := region.Quadrants(m)
	p := InterRegion{Base: Transpose{Mesh: m}, Regions: regs}
	src := m.ID(topology.Coord{X: 1, Y: 6})
	rng := sim.NewRNG(5)
	if d := p.Dest(src, rng); d != m.Transpose(src) {
		t.Fatalf("dest = %d, want transpose %d", d, m.Transpose(src))
	}
}

func TestPatternByName(t *testing.T) {
	m := mesh8()
	for _, name := range PatternNames {
		if p := PatternByName(name, m); p == nil {
			t.Fatalf("pattern %s", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown name must panic")
		}
	}()
	PatternByName("XX", m)
}

// collectInjector records generated packets.
type collected struct {
	pkts  []*msg.Packet
	nodes []int
}

func (c *collected) inject(node int, p *msg.Packet, now int64) {
	c.pkts = append(c.pkts, p)
	c.nodes = append(c.nodes, node)
}

func TestGeneratorRateAndMix(t *testing.T) {
	regs := region.Halves(mesh8())
	app := AppTraffic{
		App: 0, Nodes: regs.Nodes(0), PacketRate: 0.1,
		Components: []Component{
			{Weight: 0.75, Draw: IntraUR(regs.Nodes(0)).Draw},
			{Weight: 0.25, Draw: InterPattern(regs, PatternByName("UR", regs.Mesh())).Draw},
		},
	}
	var c collected
	g := NewGenerator([]AppTraffic{app}, 42, c.inject)
	const cycles = 5000
	for now := int64(0); now < cycles; now++ {
		g.Tick(now)
	}
	want := 0.1 * 32 * cycles
	if got := float64(len(c.pkts)); math.Abs(got-want)/want > 0.05 {
		t.Fatalf("generated %v packets, want ≈%v", got, want)
	}
	inter, short := 0, 0
	for _, p := range c.pkts {
		if p.App != 0 || p.Src == p.Dst || p.Class != msg.ClassRequest {
			t.Fatalf("bad packet %v", p)
		}
		if regs.Global(p.Src, p.Dst) {
			inter++
		}
		if p.Size == 1 {
			short++
		} else if p.Size != 5 {
			t.Fatalf("packet size %d", p.Size)
		}
	}
	if f := float64(inter) / float64(len(c.pkts)); math.Abs(f-0.25) > 0.03 {
		t.Fatalf("inter-region fraction %v, want ≈0.25", f)
	}
	if f := float64(short) / float64(len(c.pkts)); math.Abs(f-0.5) > 0.03 {
		t.Fatalf("short fraction %v, want ≈0.5", f)
	}
	if g.Created() != uint64(len(c.pkts)) {
		t.Fatal("Created mismatch")
	}
}

func TestGeneratorUntil(t *testing.T) {
	app := AppTraffic{App: 0, Nodes: []int{0, 1}, PacketRate: 1,
		Components: []Component{IntraUR([]int{0, 1})}}
	var c collected
	g := NewGenerator([]AppTraffic{app}, 1, c.inject)
	g.Until = 10
	for now := int64(0); now < 100; now++ {
		g.Tick(now)
	}
	if len(c.pkts) != 20 {
		t.Fatalf("generated %d, want 20", len(c.pkts))
	}
}

func TestMCCornersComponent(t *testing.T) {
	m := mesh8()
	comp := MCCorners(m)
	rng := sim.NewRNG(6)
	corners := map[int]bool{0: true, 7: true, 56: true, 63: true}
	toMC, fromMC := 0, 0
	for i := 0; i < 2000; i++ {
		src, dst := comp.Draw(30, rng)
		switch {
		case src == 30 && corners[dst]:
			toMC++
		case corners[src] && dst == 30:
			fromMC++
		default:
			t.Fatalf("draw %d->%d not MC traffic", src, dst)
		}
	}
	if toMC < 800 || fromMC < 800 {
		t.Fatalf("unbalanced MC traffic: %d to, %d from", toMC, fromMC)
	}
}

func TestDirectedTo(t *testing.T) {
	comp := DirectedTo([]int{40, 41})
	rng := sim.NewRNG(7)
	for i := 0; i < 100; i++ {
		src, dst := comp.Draw(3, rng)
		if src != 3 || (dst != 40 && dst != 41) {
			t.Fatalf("draw %d->%d", src, dst)
		}
	}
}

func TestAdversary(t *testing.T) {
	adv := Adversary(mesh8(), 99, 0.13)
	if len(adv.Nodes) != 64 || adv.App != 99 || adv.PacketRate != 0.13 {
		t.Fatalf("adversary %+v", adv)
	}
}

func TestSaturationRateUniform(t *testing.T) {
	// 8x8 UR with XY: the bisection bound gives 0.5 flits/node/cycle
	// (16λ/2 over 8 channels), i.e. ≈0.167 packets/node/cycle at the
	// average 3 flits/packet.
	m := mesh8()
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	app := AppTraffic{App: 0, Nodes: all, Components: []Component{IntraUR(all)}}
	r := SaturationRate(m, app, 2000, 1)
	if r < 0.14 || r > 0.18 {
		t.Fatalf("UR saturation = %v packets/node/cycle, want ≈0.167", r)
	}
}

func TestSaturationRateHotspotLower(t *testing.T) {
	m := mesh8()
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	ur := AppTraffic{App: 0, Nodes: all, Components: []Component{IntraUR(all)}}
	hs := AppTraffic{App: 0, Nodes: all, Components: []Component{
		{Weight: 1, Draw: func(node int, rng *sim.RNG) (int, int) {
			return node, PatternByName("HS", m).Dest(node, rng)
		}},
	}}
	rUR := SaturationRate(m, ur, 2000, 1)
	rHS := SaturationRate(m, hs, 2000, 1)
	if rHS >= rUR {
		t.Fatalf("hotspot saturation %v must be below UR %v", rHS, rUR)
	}
}

func TestSaturationRateRegionHigherThanChip(t *testing.T) {
	// Intra-quadrant UR travels shorter distances: higher saturation rate
	// than chip-wide UR.
	m := mesh8()
	regs := region.Quadrants(m)
	all := make([]int, 64)
	for i := range all {
		all[i] = i
	}
	chip := AppTraffic{App: 0, Nodes: all, Components: []Component{IntraUR(all)}}
	quad := AppTraffic{App: 0, Nodes: regs.Nodes(0), Components: []Component{IntraUR(regs.Nodes(0))}}
	if rq, rc := SaturationRate(m, quad, 2000, 1), SaturationRate(m, chip, 2000, 1); rq <= rc {
		t.Fatalf("region saturation %v must exceed chip %v", rq, rc)
	}
}

func TestSaturationRateEdgeCases(t *testing.T) {
	m := mesh8()
	if SaturationRate(m, AppTraffic{}, 100, 1) != 0 {
		t.Fatal("no nodes must be 0")
	}
	app := AppTraffic{App: 0, Nodes: []int{0}, Components: []Component{IntraUR([]int{0})}}
	if SaturationRate(m, app, 100, 1) != 0 {
		t.Fatal("self-only traffic must be 0")
	}
}

func TestTransposeNonSquare(t *testing.T) {
	// The swapped coordinate wraps into range: every destination is a
	// valid node on any mesh shape, and the square case is the classic
	// transpose.
	for _, dims := range [][2]int{{4, 2}, {2, 4}, {1, 8}, {8, 1}, {3, 5}} {
		m := topology.NewMesh(dims[0], dims[1])
		tp := Transpose{Mesh: m}
		for src := 0; src < m.N(); src++ {
			d := tp.Dest(src, nil)
			if d < 0 || d >= m.N() {
				t.Fatalf("%dx%d: dest(%d) = %d out of range", m.W, m.H, src, d)
			}
			c, dc := m.Coord(src), m.Coord(d)
			if dc.X != c.Y%m.W || dc.Y != c.X%m.H {
				t.Fatalf("%dx%d: dest(%d) = %v, want wrapped transpose of %v", m.W, m.H, src, dc, c)
			}
		}
	}
	m := mesh8()
	for src := 0; src < m.N(); src++ {
		if (Transpose{Mesh: m}).Dest(src, nil) != m.Transpose(src) {
			t.Fatal("square mesh must use the exact transpose")
		}
	}
}

func TestHotspotDedupOnDegenerateMeshes(t *testing.T) {
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {2, 2}, {1, 1}, {1, 4}} {
		m := topology.NewMesh(dims[0], dims[1])
		hs := PatternByName("HS", m).(Hotspot)
		seen := map[int]bool{}
		for _, h := range hs.Hotspots {
			if h < 0 || h >= m.N() {
				t.Fatalf("%dx%d: hotspot %d out of range", m.W, m.H, h)
			}
			if seen[h] {
				t.Fatalf("%dx%d: duplicate hotspot %d", m.W, m.H, h)
			}
			seen[h] = true
		}
		if len(hs.Hotspots) == 0 {
			t.Fatalf("%dx%d: no hotspots", m.W, m.H)
		}
	}
	// A full-size mesh keeps all four quarter-point hotspots.
	if got := len(PatternByName("HS", mesh8()).(Hotspot).Hotspots); got != 4 {
		t.Fatalf("8x8 hotspots = %d, want 4", got)
	}
}

func TestPatternsInRangeOnBoundaryMeshes(t *testing.T) {
	// Every named pattern must return in-range destinations on non-square
	// and 1-wide meshes.
	rng := sim.NewRNG(7)
	for _, dims := range [][2]int{{1, 8}, {8, 1}, {4, 2}, {3, 3}, {1, 1}} {
		m := topology.NewMesh(dims[0], dims[1])
		for _, name := range []string{"UR", "TP", "BC", "HS"} {
			p := PatternByName(name, m)
			for src := 0; src < m.N(); src++ {
				for i := 0; i < 20; i++ {
					if d := p.Dest(src, rng); d < 0 || d >= m.N() {
						t.Fatalf("%dx%d %s: dest(%d) = %d out of range", m.W, m.H, name, src, d)
					}
				}
			}
		}
	}
}

// TestPatternsAtScale locks the pattern generators at the big-mesh sizes
// the scale-out experiments run: quarter-point hotspots stay distinct and
// interior, transpose is exact on 32x32 and wrapped on 64x32, and every
// draw lands in range.
func TestPatternsAtScale(t *testing.T) {
	rng := sim.NewRNG(9)
	for _, dims := range [][2]int{{32, 32}, {64, 32}, {64, 64}} {
		m := topology.NewMesh(dims[0], dims[1])
		for _, name := range []string{"UR", "TP", "BC", "HS"} {
			p := PatternByName(name, m)
			for _, src := range []int{0, 1, m.W - 1, m.N() / 2, m.N() - m.W, m.N() - 1} {
				for i := 0; i < 50; i++ {
					if d := p.Dest(src, rng); d < 0 || d >= m.N() {
						t.Fatalf("%dx%d %s: dest(%d) = %d out of range", m.W, m.H, name, src, d)
					}
				}
			}
		}
		hs := PatternByName("HS", m).(Hotspot)
		if len(hs.Hotspots) != 4 {
			t.Fatalf("%dx%d: %d hotspots, want 4", m.W, m.H, len(hs.Hotspots))
		}
		for _, h := range hs.Hotspots {
			c := m.Coord(h)
			if c.X == 0 || c.Y == 0 || c.X == m.W-1 || c.Y == m.H-1 {
				t.Fatalf("%dx%d: hotspot %v on the mesh edge, want interior", m.W, m.H, c)
			}
		}
		bc := BitComplement{Mesh: m}
		for _, src := range []int{0, 1, m.N() - 1} {
			if d := bc.Dest(src, nil); d != m.N()-1-src {
				t.Fatalf("%dx%d BC: dest(%d) = %d, want %d", m.W, m.H, src, d, m.N()-1-src)
			}
		}
	}
	// 32x32 is square: transpose must be the classic exact swap.
	m := topology.NewMesh(32, 32)
	tp := Transpose{Mesh: m}
	for src := 0; src < m.N(); src++ {
		c, dc := m.Coord(src), m.Coord(tp.Dest(src, nil))
		if dc.X != c.Y || dc.Y != c.X {
			t.Fatalf("32x32: dest(%v) = %v, want exact transpose", c, dc)
		}
	}
}

// TestUniformWithConcentratedNodes: a node list may repeat router ids (the
// weight of several cores behind one router). Uniform must keep every draw
// a member of the list; with src duplicated, self-draws are allowed (only
// one occurrence is excluded) and callers skip them — locked here so a
// dedup "fix" doesn't silently reweight destinations.
func TestUniformWithConcentratedNodes(t *testing.T) {
	rng := sim.NewRNG(3)
	nodes := []int{0, 0, 1, 1, 2, 2, 3, 3} // 4 routers, each listed twice
	member := map[int]bool{}
	for _, v := range nodes {
		member[v] = true
	}
	u := NewUniform(nodes)
	counts := map[int]int{}
	for i := 0; i < 4000; i++ {
		d := u.Dest(0, rng)
		if !member[d] {
			t.Fatalf("dest %d not in node list", d)
		}
		counts[d]++
	}
	// src=0 still appears once in the sampled list (its duplicate), so it
	// must draw, but less often than the fully-duplicated routers.
	if counts[0] == 0 {
		t.Fatal("duplicated src never drawn: exclusion removed both copies")
	}
	for _, v := range []int{1, 2, 3} {
		if counts[v] <= counts[0] {
			t.Fatalf("router %d drawn %d times, not above half-excluded src (%d)", v, counts[v], counts[0])
		}
	}
	// Saturation estimation must stay finite and positive on a duplicated
	// node list.
	m := topology.NewMesh(2, 2)
	app := AppTraffic{App: 0, Nodes: nodes, Components: []Component{IntraUR(nodes)}}
	if r := SaturationRate(m, app, 2000, 1); r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("SaturationRate on duplicated nodes = %v", r)
	}
}
