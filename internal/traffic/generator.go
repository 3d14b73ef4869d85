package traffic

import (
	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
	"rair/internal/topology"
)

// InjectorFunc hands a generated packet to the network at its source NI.
type InjectorFunc func(node int, p *msg.Packet, now int64)

// Component is one weighted traffic component of an application: it draws a
// (src, dst) pair for an event originating at one of the app's nodes. MC
// reply traffic draws src at a corner node, which is why src is drawn
// rather than fixed.
type Component struct {
	Weight float64
	Draw   func(node int, rng *sim.RNG) (src, dst int)
}

// Weighted returns the component at weight w (constructors return weight 1).
func (c Component) Weighted(w float64) Component {
	c.Weight = w
	return c
}

// AppTraffic describes one application's synthetic traffic.
type AppTraffic struct {
	// App is the application number carried by generated packets.
	App int
	// Nodes are the injection sites (normally the app's region nodes).
	Nodes []int
	// PacketRate is the per-node packet generation probability per cycle.
	PacketRate float64
	// Components are the weighted traffic components (weights need not
	// sum to one; they are normalized).
	Components []Component
}

// shortFrac is the fraction of 1-flit short packets; the rest are 5-flit
// long packets. The paper assigns the two lengths uniformly.
const shortFrac = 0.5

func (a AppTraffic) totalWeight() float64 {
	t := 0.0
	for _, c := range a.Components {
		t += c.Weight
	}
	return t
}

// draw picks a component by weight and produces an event.
func (a AppTraffic) draw(node int, rng *sim.RNG) (src, dst int) {
	t := a.totalWeight()
	if t == 0 {
		return node, node
	}
	x := rng.Float64() * t
	for _, c := range a.Components {
		if x < c.Weight {
			return c.Draw(node, rng)
		}
		x -= c.Weight
	}
	last := a.Components[len(a.Components)-1]
	return last.Draw(node, rng)
}

// Generator drives a set of application traffic descriptions, creating and
// injecting packets every cycle. It implements sim.Tickable; register it
// before the network so packets created at cycle t can start injecting at
// cycle t.
type Generator struct {
	apps   []AppTraffic
	rng    *sim.RNG
	inject InjectorFunc
	nextID uint64
	// Until stops generation at this cycle when > 0 (the network then
	// drains).
	Until int64
	// Pool, when non-nil, supplies packet structs instead of the heap. Set
	// it together with network.Params.Recycle so ejected packets flow back;
	// a recycled packet carries the same field values a fresh allocation
	// would, so pooling never changes simulation results.
	Pool *msg.Pool
}

// NewGenerator builds a generator over the given applications.
func NewGenerator(apps []AppTraffic, seed uint64, inject InjectorFunc) *Generator {
	return &Generator{apps: apps, rng: sim.NewRNG(seed), inject: inject}
}

// Created reports the number of packets generated so far.
func (g *Generator) Created() uint64 { return g.nextID }

// Tick implements sim.Tickable.
func (g *Generator) Tick(now int64) {
	if g.Until > 0 && now >= g.Until {
		return
	}
	for ai := range g.apps {
		a := &g.apps[ai]
		for _, node := range a.Nodes {
			if !g.rng.Bool(a.PacketRate) {
				continue
			}
			src, dst := a.draw(node, g.rng)
			if src == dst {
				continue
			}
			size := msg.LongPacketFlits
			if g.rng.Bool(shortFrac) {
				size = msg.ShortPacketFlits
			}
			g.nextID++
			p := g.Pool.Get()
			p.ID, p.App, p.Src, p.Dst = g.nextID, a.App, src, dst
			p.Class, p.Size = msg.ClassRequest, size
			g.inject(src, p, now)
		}
	}
}

// IntraUR is the intra-region uniform-random component: destinations are
// uniform over the app's own nodes.
func IntraUR(nodes []int) Component { return DirectedTo(nodes) }

// InterPattern is the inter-region global-traffic component following a
// chip-wide base pattern, always crossing region boundaries.
func InterPattern(regions *region.Map, base Pattern) Component {
	p := InterRegion{Base: base, Regions: regions}
	return Component{Weight: 1, Draw: func(node int, rng *sim.RNG) (int, int) {
		return node, p.Dest(node, rng)
	}}
}

// DirectedTo sends to a uniformly random node of target (e.g. the DPA
// scenario where low-load apps send into App 3's region).
func DirectedTo(target []int) Component {
	u := NewUniform(target)
	return Component{Weight: 1, Draw: func(node int, rng *sim.RNG) (int, int) {
		return node, u.Dest(node, rng)
	}}
}

// MCCorners models memory-controller traffic: half the events send from the
// app node to a random corner MC, half are MC replies from a random corner
// back to the app node.
func MCCorners(mesh *topology.Mesh) Component {
	corners := mesh.Corners()
	return Component{Weight: 1, Draw: func(node int, rng *sim.RNG) (int, int) {
		mc := corners[rng.Intn(len(corners))]
		if rng.Bool(0.5) {
			return node, mc
		}
		return mc, node
	}}
}

// Adversary builds the malicious/buggy traffic of Section V.G: chip-wide
// uniform random traffic injected at every node under an application number
// assigned to no region, so it is foreign traffic everywhere. rate is in
// packets per node per cycle.
func Adversary(mesh *topology.Mesh, app int, rate float64) AppTraffic {
	all := make([]int, mesh.N())
	for i := range all {
		all[i] = i
	}
	return AppTraffic{
		App: app, Nodes: all, PacketRate: rate,
		Components: []Component{IntraUR(all)},
	}
}
