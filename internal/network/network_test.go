package network

import (
	"fmt"
	"testing"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/sim"
	"rair/internal/topology"
)

// rairSpec is the full RAIR: DPA at the default Δ, MSP at VA and SA.
var rairSpec = policy.Spec{Priority: policy.DPA, Delta: policy.DefaultDelta}

// build returns a small test network collecting delivered packets.
func build(t testing.TB, regions *region.Map, pf policy.Spec, sel routing.Selector) (*Network, *[]*msg.Packet) {
	t.Helper()
	mesh := regions.Mesh()
	var delivered []*msg.Packet
	if sel == nil {
		sel = routing.LocalSelector{}
	}
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: mesh},
		Sel:     sel,
		Policy:  pf,
		OnEject: func(p *msg.Packet, now int64) { delivered = append(delivered, p) },
	})
	return n, &delivered
}

func run(n *Network, from, cycles int64) {
	for c := from; c < from+cycles; c++ {
		n.Tick(c)
	}
}

func mesh4() *region.Map { return region.Single(topology.NewMesh(4, 4)) }

func TestSinglePacketDelivery(t *testing.T) {
	n, delivered := build(t, mesh4(), policy.Spec{}, nil)
	p := &msg.Packet{ID: 1, App: 0, Src: 0, Dst: 15, Class: msg.ClassRequest, Size: 5}
	n.Inject(p, 0)
	run(n, 0, 200)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d packets", len(*delivered))
	}
	got := (*delivered)[0]
	if got != p || got.EjectedAt < 0 {
		t.Fatal("wrong packet or missing ejection stamp")
	}
	if got.Hops != n.Mesh().Distance(0, 15)+1 {
		t.Fatalf("hops = %d, want %d", got.Hops, n.Mesh().Distance(0, 15)+1)
	}
	n.CheckDrained()
}

func TestZeroLoadLatency(t *testing.T) {
	// One packet across an idle network: latency must match the pipeline
	// model. Per hop: RC+VA+SA (3 cycles in router) + ST/LT (LinkLatency).
	// Plus injection link and the final ejection link.
	n, delivered := build(t, mesh4(), policy.Spec{}, nil)
	cfg := router.DefaultConfig(1)
	src, dst := 0, 3 // 3 hops east
	p := &msg.Packet{ID: 1, Src: src, Dst: dst, Size: 1, Class: msg.ClassRequest}
	n.Inject(p, 0)
	run(n, 0, 100)
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	hops := n.Mesh().Distance(src, dst) + 1 // routers traversed
	perHop := 3 + cfg.LinkLatency           // RC+VA+SA in-router, ST/LT on the link
	want := int64(cfg.LinkLatency + hops*perHop)
	if lat := p.TotalLatency(); lat != want {
		t.Fatalf("zero-load latency = %d, want %d (hops=%d)", lat, want, hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every (src,dst) pair eventually delivers, exercising all turns.
	n, delivered := build(t, mesh4(), policy.Spec{}, nil)
	id := uint64(0)
	now := int64(0)
	mesh := n.Mesh()
	for s := 0; s < mesh.N(); s++ {
		for d := 0; d < mesh.N(); d++ {
			if s == d {
				continue
			}
			id++
			n.Inject(&msg.Packet{ID: id, Src: s, Dst: d, Size: 3, Class: msg.ClassRequest}, now)
		}
	}
	for c := int64(0); c < 20000 && !n.Drained(); c++ {
		n.Tick(c)
	}
	if got := len(*delivered); got != int(id) {
		t.Fatalf("delivered %d of %d", got, id)
	}
	n.CheckDrained()
}

func TestPacketLossAndDuplication(t *testing.T) {
	n, delivered := build(t, mesh4(), policy.Spec{}, nil)
	rng := sim.NewRNG(1)
	var injected int
	for c := int64(0); c < 3000; c++ {
		if c < 2000 && rng.Bool(0.3) {
			src := rng.Intn(16)
			dst := rng.Intn(16)
			if dst != src {
				injected++
				size := 1
				if rng.Bool(0.5) {
					size = 5
				}
				n.Inject(&msg.Packet{ID: uint64(injected), Src: src, Dst: dst, Size: size, Class: msg.ClassRequest}, c)
			}
		}
		n.Tick(c)
	}
	seen := map[uint64]bool{}
	for _, p := range *delivered {
		if seen[p.ID] {
			t.Fatalf("duplicate delivery of packet %d", p.ID)
		}
		seen[p.ID] = true
	}
	if len(*delivered) != injected {
		t.Fatalf("delivered %d of %d", len(*delivered), injected)
	}
}

func TestMinimalHops(t *testing.T) {
	// Adaptive minimal routing must never exceed the Manhattan distance.
	n, delivered := build(t, mesh4(), policy.Spec{}, nil)
	rng := sim.NewRNG(2)
	for c := int64(0); c < 2000; c++ {
		if c < 1500 && rng.Bool(0.2) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				n.Inject(&msg.Packet{Src: src, Dst: dst, Size: 1, Class: msg.ClassRequest}, c)
			}
		}
		n.Tick(c)
	}
	for _, p := range *delivered {
		if p.Hops != n.Mesh().Distance(p.Src, p.Dst)+1 {
			t.Fatalf("packet %d->%d took %d router hops (distance %d)", p.Src, p.Dst, p.Hops, n.Mesh().Distance(p.Src, p.Dst))
		}
	}
}

func TestDeterminism(t *testing.T) {
	trace := func() []int64 {
		n, delivered := build(t, mesh4(), policy.Spec{}, nil)
		rng := sim.NewRNG(7)
		var id uint64
		for c := int64(0); c < 2000; c++ {
			if c < 1500 && rng.Bool(0.4) {
				src, dst := rng.Intn(16), rng.Intn(16)
				if src != dst {
					id++
					n.Inject(&msg.Packet{ID: id, Src: src, Dst: dst, Size: 5, Class: msg.ClassRequest}, c)
				}
			}
			n.Tick(c)
		}
		var out []int64
		for _, p := range *delivered {
			out = append(out, int64(p.ID)<<20|p.EjectedAt)
		}
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at delivery %d", i)
		}
	}
}

// Near-saturation sustained load with RAIR: nothing deadlocks, no packet
// starves in the network, and everything drains.
func TestNoDeadlockOrStarvationUnderRAIR(t *testing.T) {
	regions := region.Quadrants(topology.NewMesh(8, 8))
	sel := routing.DBARSelector{Mesh: regions.Mesh(), Regions: regions, Depth: 5}
	n, delivered := build(t, regions, rairSpec, sel)
	rng := sim.NewRNG(3)
	var id uint64
	for c := int64(0); c < 12000; c++ {
		if c < 4000 {
			for node := 0; node < 64; node++ {
				if !rng.Bool(0.08) { // ~0.24 flits/node/cycle: around saturation
					continue
				}
				dst := rng.Intn(64)
				if dst == node {
					continue
				}
				id++
				n.Inject(&msg.Packet{
					ID: id, App: regions.AppAt(node), Src: node, Dst: dst,
					Size: 1 + 4*rng.Intn(2), Class: msg.ClassRequest,
				}, c)
			}
		}
		n.Tick(c)
		if c%500 == 499 {
			if p := n.StuckPacket(c, 3000); p != nil {
				t.Fatalf("cycle %d: packet stuck since %d: %v\n%s", c, p.InjectedAt, p, n.routers[p.Src].DebugState())
			}
		}
		if c > 4000 && n.Drained() {
			break
		}
	}
	if int(id) != len(*delivered) {
		t.Fatalf("delivered %d of %d under sustained load", len(*delivered), id)
	}
	n.CheckDrained()
}

// Far beyond saturation the network must keep full throughput and drain once
// injection stops: locally-fair arbitration means individual packets can
// wait a long time under 4x overload, but global progress never stalls.
func TestOverloadDrains(t *testing.T) {
	regions := region.Quadrants(topology.NewMesh(8, 8))
	sel := routing.DBARSelector{Mesh: regions.Mesh(), Regions: regions, Depth: 5}
	n, delivered := build(t, regions, rairSpec, sel)
	rng := sim.NewRNG(3)
	var id uint64
	drained := false
	for c := int64(0); c < 40000; c++ {
		if c < 2000 {
			for node := 0; node < 64; node++ {
				if !rng.Bool(0.35) { // ~4x saturation
					continue
				}
				dst := rng.Intn(64)
				if dst == node {
					continue
				}
				id++
				n.Inject(&msg.Packet{
					ID: id, App: regions.AppAt(node), Src: node, Dst: dst,
					Size: 1 + 4*rng.Intn(2), Class: msg.ClassRequest,
				}, c)
			}
		}
		n.Tick(c)
		if c > 2000 && n.Drained() {
			drained = true
			break
		}
	}
	if !drained {
		t.Fatalf("network failed to drain after overload: inflight=%d", n.InFlight())
	}
	if int(id) != len(*delivered) {
		t.Fatalf("delivered %d of %d", len(*delivered), id)
	}
}

// Foreign and native traffic must both make progress under every RAIR mode
// (starvation avoidance, Section IV.D).
func TestRAIRModesDeliverEverything(t *testing.T) {
	for _, cfg := range []policy.Spec{
		rairSpec,
		{Priority: policy.NativeH},
		{Priority: policy.ForeignH},
		{Priority: policy.DPA, MSP: policy.VAOnly, Delta: policy.DefaultDelta},
	} {
		regions := region.Halves(topology.NewMesh(4, 4))
		n, delivered := build(t, regions, cfg, nil)
		rng := sim.NewRNG(11)
		var id uint64
		for c := int64(0); c < 5000; c++ {
			if c < 3000 && rng.Bool(0.6) {
				src := rng.Intn(16)
				dst := rng.Intn(16)
				if src != dst {
					id++
					n.Inject(&msg.Packet{
						ID: id, App: regions.AppAt(src), Src: src, Dst: dst,
						Size: 5, Class: msg.ClassRequest,
					}, c)
				}
			}
			n.Tick(c)
		}
		if len(*delivered) != int(id) {
			t.Fatalf("%+v: delivered %d of %d", cfg, len(*delivered), id)
		}
	}
}

func TestTwoClassesShareNetwork(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	regions := region.Single(mesh)
	var delivered []*msg.Packet
	n := New(Params{
		Router:  router.DefaultConfig(2),
		Regions: regions,
		Alg:     routing.MinimalAdaptive{Mesh: mesh},
		Sel:     routing.LocalSelector{},
		OnEject: func(p *msg.Packet, now int64) { delivered = append(delivered, p) },
	})
	rng := sim.NewRNG(5)
	var id uint64
	for c := int64(0); c < 3000; c++ {
		if c < 2000 && rng.Bool(0.3) {
			src, dst := rng.Intn(16), rng.Intn(16)
			if src != dst {
				id++
				cls, size := msg.ClassRequest, msg.ShortPacketFlits
				if rng.Bool(0.5) {
					cls, size = msg.ClassResponse, msg.LongPacketFlits
				}
				n.Inject(&msg.Packet{ID: id, Src: src, Dst: dst, Size: size, Class: cls}, c)
			}
		}
		n.Tick(c)
	}
	if len(delivered) != int(id) {
		t.Fatalf("delivered %d of %d", len(delivered), id)
	}
}

func TestGlobalFlagStamped(t *testing.T) {
	regions := region.Halves(topology.NewMesh(4, 4))
	n, delivered := build(t, regions, policy.Spec{}, nil)
	intra := &msg.Packet{ID: 1, Src: 0, Dst: 1, Size: 1, Class: msg.ClassRequest}
	inter := &msg.Packet{ID: 2, Src: 0, Dst: 3, Size: 1, Class: msg.ClassRequest}
	n.Inject(intra, 0)
	n.Inject(inter, 0)
	run(n, 0, 200)
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if intra.Global || !inter.Global {
		t.Fatalf("global stamping wrong: intra=%v inter=%v", intra.Global, inter.Global)
	}
}

func TestXYRoutingWorksToo(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	regions := region.Single(mesh)
	var delivered []*msg.Packet
	n := New(Params{
		Router:  router.DefaultConfig(1),
		Regions: regions,
		Alg:     routing.XY{Mesh: mesh},
		Sel:     routing.LocalSelector{},
		OnEject: func(p *msg.Packet, now int64) { delivered = append(delivered, p) },
	})
	for s := 0; s < 16; s++ {
		n.Inject(&msg.Packet{ID: uint64(s + 1), Src: s, Dst: 15 - s, Size: 5, Class: msg.ClassRequest}, 0)
	}
	run(n, 0, 2000)
	if len(delivered) != 16 {
		t.Fatalf("delivered %d of 16", len(delivered))
	}
}

// StuckPacket returns a packet that has been inside the network for more
// than limit cycles (a deadlock/starvation watchdog), or nil.
func (n *Network) StuckPacket(now, limit int64) *msg.Packet {
	for _, r := range n.routers {
		if p := r.OldestOwner(); p != nil && p.InjectedAt >= 0 && now-p.InjectedAt > limit {
			return p
		}
	}
	return nil
}

// FlitConservation reports material accounted for inside the network
// (flits buffered in routers or ST registers, plus flits and credits on the
// wires) alongside the in-flight packet count (created but not ejected,
// network-wide). The invariant tests rely on: whenever in-flight packets are
// zero, everything inside must be zero too — anything else means flits were
// lost, duplicated, or stranded. The wires are read as the invariant checker
// walks them, through the senders' handles, busy or not.
func (n *Network) FlitConservation() (inside, inflightPackets int64) {
	for _, r := range n.routers {
		inside += int64(r.BufferedFlits())
	}
	check := n.check
	if check == nil {
		check = invariant.NewChecker(invariant.Config{}, invariant.Target{
			Mesh: n.mesh, Routers: n.routers, NIs: n.nis,
			Links: func(fn func(src, dst router.LinkEnd)) {
				for _, l := range linkTable(n.mesh, n.chiplets) {
					fn(l.src, l.dst)
				}
			},
		})
	}
	check.EachLink(func(_, _ router.LinkEnd, w router.FlitWire, credit int) {
		w.Each(func(msg.Flit) { inside++ })
		if credit >= 0 {
			inside++
		}
	})
	return inside, n.InFlight()
}

// CheckDrained panics with diagnostics if the network failed to drain.
func (n *Network) CheckDrained() {
	if !n.Drained() {
		inside, _ := n.FlitConservation()
		panic(fmt.Sprintf("network: failed to drain: inflight=%d inside=%d", n.InFlight(), inside))
	}
}
