// Package network assembles routers, network interfaces and links into a
// complete mesh NoC and advances them cycle by cycle. All inter-component
// communication goes through links that are shifted once per cycle before
// any component ticks, so results are independent of iteration order.
//
// Cycles are advanced by a sharded tick engine (see engine.go): the serial
// configuration runs all phases inline on one shard, while Params.Workers
// splits the mesh across persistent worker goroutines with barrier-separated
// phases, producing bit-identical results.
//
// Under a selector that reads it (routing.ConsumesCongestion), the network
// also keeps DBAR's congestion view, a short history of every router's
// occupancy (router.History).
package network

import (
	"fmt"
	"runtime"

	"rair/internal/invariant"
	"rair/internal/msg"
	"rair/internal/policy"
	"rair/internal/region"
	"rair/internal/router"
	"rair/internal/routing"
	"rair/internal/telemetry"
	"rair/internal/topology"
)

// Params configures a network build.
type Params struct {
	// Router is the microarchitecture configuration shared by all nodes.
	Router router.Config
	// Regions assigns applications to nodes (also provides the mesh).
	Regions *region.Map
	// Alg is the routing algorithm; Sel the selection function used when
	// the algorithm returns several candidates.
	Alg routing.Algorithm
	Sel routing.Selector
	// Policy is the arbitration policy each router builds its own from.
	Policy policy.Spec
	// OnEject, if non-nil, observes every delivered packet. Callbacks run
	// on the goroutine calling Tick, in ascending node order within a
	// cycle, regardless of Workers.
	OnEject func(*msg.Packet, int64)
	// Recycle, if non-nil, receives every delivered packet after OnEject
	// has observed it, under the same coordinator-goroutine node-order
	// guarantee. It exists to return packets to a freelist (msg.Pool), so
	// it must only be set when no observer retains packet pointers past
	// the OnEject callback.
	Recycle func(*msg.Packet)
	// Workers is the number of tick-engine shards. Values <= 1 run
	// serially on the calling goroutine; higher values partition the mesh
	// across Workers-1 persistent worker goroutines plus the caller. Call
	// Close when done with a parallel network (a finalizer backstops it).
	Workers int
	// Telemetry, if non-nil, instruments every router and NI with a
	// per-node probe from the collector. Probes are written only by the
	// owning shard during the compute phase; the window sampler and all
	// cross-probe aggregation run on the goroutine calling Tick, so
	// simulation results are bit-identical with telemetry on or off, at
	// any worker count.
	Telemetry *telemetry.Collector
	// Check, if non-nil, runs the runtime invariant checker at every tick
	// barrier on the coordinating goroutine (read-only audits; enabling it
	// cannot change simulation results). See internal/invariant.
	Check *invariant.Config
	// Profile enables engine self-profiling: per-shard phase wall times,
	// coordinator barrier-wait histograms, armed-component and dirty-wire
	// sweep counts. Purely observational (wall-clock and visit counts, no
	// simulation state), so results are bit-identical with it on or off.
	// Read the result with EngineProfile. See profile.go.
	Profile bool
	// Chiplets, if non-nil, builds the mesh as a two-level chiplet system:
	// its tile edges are left unwired and inter-chiplet packets cross the
	// bandwidth-partitioned crossbar between tile gateways. The chiplet
	// grid must span exactly the Regions mesh. Injection must then go
	// through Network.Inject (which plans the gateway legs); direct NI
	// injection would strand inter-chiplet packets at an unwired edge.
	Chiplets *topology.Chiplets
}

// Network is a fully wired mesh NoC.
type Network struct {
	params  Params
	mesh    *topology.Mesh
	routers []*router.Router
	nis     []*router.NI
	eng     *engine
	tel     *telemetry.Collector
	probes  []*telemetry.Probe // per node, nil when telemetry is off
	check   *invariant.Checker // nil when unchecked

	chiplets   *topology.Chiplets // nil for plain meshes
	xbar       *Crossbar          // nil for plain meshes
	bridgeSlot int                // NI slot reserved for crossbar re-injection (-1 without chiplets)
}

// New builds and wires the network.
func New(p Params) *Network {
	if err := p.Router.Validate(); err != nil {
		panic(err)
	}
	if p.Regions == nil || p.Alg == nil || p.Sel == nil {
		panic("network: incomplete params")
	}
	mesh := p.Regions.Mesh()
	bridgeSlot := -1
	if p.Chiplets != nil {
		cm := p.Chiplets.Mesh()
		if cm.W != mesh.W || cm.H != mesh.H {
			panic(fmt.Sprintf("network: chiplet grid spans %dx%d but regions mesh is %dx%d",
				cm.W, cm.H, mesh.W, mesh.H))
		}
		// The chip-to-chip PHY has its own NI ingress queue: crossbar
		// re-injections use a dedicated injector slot, so a gateway node's
		// own traffic never queues behind the foreign backlog (the NI's
		// claim scan interleaves the slots round-robin).
		bridgeSlot = p.Router.InjectorCount()
		p.Router.Injectors = bridgeSlot + 1
	}
	n := &Network{
		params:     p,
		mesh:       mesh,
		routers:    make([]*router.Router, mesh.N()),
		nis:        make([]*router.NI, mesh.N()),
		tel:        p.Telemetry,
		chiplets:   p.Chiplets,
		bridgeSlot: bridgeSlot,
	}
	if n.tel != nil {
		n.probes = make([]*telemetry.Probe, mesh.N())
	}
	// One dense state store per shard, holding once what its routers and NIs
	// share (configuration, regions, routing, the ejection hook); they are
	// built as views into it (struct-of-arrays slabs + work mirrors).
	n.eng = newEngine(n.routers, n.nis, newPartition(mesh.N(), p.Workers))
	for _, sh := range n.eng.shards {
		// Phase 1 buffers ejections per shard; Tick replays them in node order.
		var onEject func(*msg.Packet, int64)
		if p.OnEject != nil || p.Recycle != nil || p.Chiplets != nil {
			onEject = func(pkt *msg.Packet, now int64) {
				sh.ejections = append(sh.ejections, ejection{pkt, now})
			}
		}
		sh.soa = router.NewSoA(p.Router, p.Regions, p.Alg, p.Sel, onEject, len(sh.routers))
	}
	// Routers before NIs: built in one pass, their small allocations
	// interleave and the compute phase measured 2 % slower at 32×32.
	for _, sh := range n.eng.shards {
		for li := range sh.routers {
			id := sh.lo + li
			app := p.Regions.AppAt(id)
			r := router.NewInStore(sh.soa, li, id, app, p.Policy)
			if n.tel != nil {
				n.probes[id] = n.tel.ProbeFor(id, app)
				r.SetTelemetry(n.probes[id])
			}
			n.routers[id] = r
		}
	}
	for _, sh := range n.eng.shards {
		for li := range sh.nis {
			id := sh.lo + li
			ni := router.NewNIInStore(sh.soa, li, id)
			if n.tel != nil {
				ni.SetTelemetry(n.probes[id])
			}
			n.nis[id] = ni
		}
	}
	if p.Profile {
		n.eng.prof = newEngineProf(len(n.eng.shards))
	}
	links := linkTable(mesh, p.Chiplets) // only a checker keeps it
	n.eng.bind(links, p.Router.LinkLatency)
	if routing.ConsumesCongestion(p.Sel) {
		// After bind: a path ends at the first router with no wire onward.
		n.eng.hist = router.NewHistory(mesh, n.routers)
		for _, sh := range n.eng.shards {
			sh.ticked = make([]uint64, len(sh.soa.ArmedR))
		}
	}
	if p.Chiplets != nil {
		n.xbar = NewCrossbar(p.Chiplets, n.xbarDeliver)
	}
	if p.Check != nil {
		n.check = invariant.NewChecker(*p.Check, invariant.Target{
			Depth: p.Router.Depth, VCs: p.Router.VCsPerPort(), Mesh: mesh,
			Routers: n.routers, NIs: n.nis,
			Links: func(fn func(src, dst router.LinkEnd)) {
				for _, l := range links {
					fn(l.src, l.dst)
				}
			},
			Telemetry: n.tel,
		})
	}
	if p.Workers > 1 {
		runtime.SetFinalizer(n, (*Network).Close)
	}
	return n
}

// link is one row of the wiring table: the flit sender and receiver.
type link struct{ src, dst router.LinkEnd }

// linkTable lays out the wiring: one link per direction per adjacent
// router pair, then each node's injection and ejection link. Pairs across
// a chiplet tile edge are never wired: the crossbar joins the tiles.
func linkTable(mesh *topology.Mesh, chips *topology.Chiplets) []link {
	// At most four mesh links and two NI links leave or enter a node.
	links := make([]link, 0, 6*mesh.N())
	for id := 0; id < mesh.N(); id++ {
		for _, d := range [...]topology.Dir{topology.East, topology.South} {
			nb := mesh.Neighbor(id, d)
			if nb == -1 || chips != nil && !chips.SameChip(id, nb) {
				continue
			}
			here, there := router.LinkEnd{Node: id, Dir: d}, router.LinkEnd{Node: nb, Dir: d.Opposite()}
			links = append(links, link{here, there}, link{there, here})
		}
	}
	for id := 0; id < mesh.N(); id++ {
		port, ni := router.LinkEnd{Node: id, Dir: topology.Local}, router.LinkEnd{Node: id, NI: true}
		links = append(links, link{ni, port}, link{port, ni})
	}
	return links
}

// Close stops the tick engine's worker goroutines. Safe to call multiple
// times; a no-op for serial networks.
func (n *Network) Close() {
	runtime.SetFinalizer(n, nil)
	n.eng.close()
}

// Workers reports the number of tick-engine shards actually in use.
func (n *Network) Workers() int { return len(n.eng.shards) }

// CongestionEnabled reports whether the network keeps DBAR's congestion view.
func (n *Network) CongestionEnabled() bool { return n.eng.hist != nil }

// Mesh returns the topology.
func (n *Network) Mesh() *topology.Mesh { return n.mesh }

// Checker returns the run's invariant checker (nil when unchecked).
func (n *Network) Checker() *invariant.Checker { return n.check }

// Tick advances the whole network one cycle through the engine's
// barrier-separated phases.
func (n *Network) Tick(now int64) {
	n.eng.now = now
	if n.eng.hist != nil {
		n.eng.hist.Advance(now)
	}
	if n.eng.prof != nil {
		n.eng.prof.cycles++
	}
	// Phase 1: links deliver.
	n.eng.run(phaseLinks)
	// Phase 2: routers and NIs compute.
	n.eng.run(phaseCompute)
	// Sample telemetry windows on this goroutine after all barriers: every
	// probe is quiescent (its owning shard finished the compute phase), so
	// the read is race-free and deterministic.
	if n.tel != nil && n.tel.Advance(now) {
		// A linear sweep over the shard stores' dense occupancy arrays.
		for _, sh := range n.eng.shards {
			for j := range sh.routers {
				n.probes[sh.lo+j].Sample(now, int(sh.soa.NativeOcc[j]), int(sh.soa.ForeignOcc[j]))
			}
		}
	}
	// Audit the quiescent network. The checker is read-only, so running it
	// (or not) cannot change simulation results.
	if n.check != nil {
		n.check.Check(now)
	}
	// Replay buffered ejections in node order on this goroutine: observers
	// first, then the recycler reclaims the packet. In a chiplet system a
	// packet ejecting at a gateway short of its final destination is not
	// delivered — it enters the crossbar for its second leg.
	if n.params.OnEject != nil || n.params.Recycle != nil || n.chiplets != nil {
		for _, sh := range n.eng.shards {
			for _, e := range sh.ejections {
				if n.chiplets != nil && e.pkt.FinalDst != e.pkt.Dst {
					n.xbar.Submit(e.pkt, e.pkt.CreatedAt, e.now)
					continue
				}
				if n.params.OnEject != nil {
					n.params.OnEject(e.pkt, e.now)
				}
				if n.params.Recycle != nil {
					n.params.Recycle(e.pkt)
				}
			}
			sh.ejections = sh.ejections[:0]
		}
	}
	// The crossbar ticks after replay so same-cycle submissions are
	// visible; it runs on this goroutine, keeping chiplet systems
	// bit-exact across worker counts.
	if n.xbar != nil {
		n.xbar.Tick(now)
	}
}

// Inject introduces a packet into the network at cycle now. It is the
// canonical injection entry: plain meshes forward to the source NI; chiplet
// systems plan the gateway legs (Dst becomes the source tile's gateway and
// FinalDst the true target) and classify inter-chiplet packets as global
// traffic so RAIR's boundary discipline gates them.
func (n *Network) Inject(p *msg.Packet, now int64) {
	if n.chiplets == nil || n.chiplets.SameChip(p.Src, p.Dst) {
		p.FinalDst = p.Dst
		n.nis[p.Src].Inject(p, now)
		return
	}
	p.FinalDst = p.Dst
	gw := n.chiplets.Gateway(n.chiplets.ChipOf(p.Src))
	p.Dst = gw
	if p.Src == gw {
		// Source sits on the gateway: the first mesh leg is empty, so the
		// packet enters the crossbar directly, stamped as the NI would.
		p.CreatedAt = now
		p.InjectedAt = now
		p.EjectedAt = -1
		p.Global = true
		p.Blame = [msg.NumBlame]int32{}
		n.xbar.Submit(p, now, now)
		return
	}
	n.nis[p.Src].Inject(p, now)
	// The NI classified the gateway leg from (Src, Dst), which share a
	// region; the packet's journey crosses one, so it is global traffic.
	p.Global = true
}

// xbarDeliver re-introduces a packet that finished crossing the switch:
// it is re-injected at the destination tile's gateway for its second mesh
// leg (or delivered outright when the gateway is the final destination),
// with the first leg's creation stamp restored so end-to-end latency spans
// queueing, both mesh legs and the crossing.
func (n *Network) xbarDeliver(f xbarFlight, now int64) {
	p := f.pkt
	gw := n.chiplets.Gateway(n.chiplets.ChipOf(p.FinalDst))
	p.Src, p.Dst = gw, p.FinalDst
	if gw == p.FinalDst {
		p.EjectedAt = now
		p.CreatedAt = f.created
		if n.params.OnEject != nil {
			n.params.OnEject(p, now)
		}
		if n.params.Recycle != nil {
			n.params.Recycle(p)
		}
		return
	}
	n.nis[gw].InjectAt(n.bridgeSlot, p, now)
	p.CreatedAt = f.created
	// Foreign traffic inside the destination tile stays on the global VCs.
	p.Global = true
}

// InFlight reports packets created but not yet ejected, network-wide.
func (n *Network) InFlight() int64 {
	var created, ejected int64
	for _, ni := range n.nis {
		created += ni.Created()
		ejected += ni.Ejected()
	}
	return created - ejected
}

// Drained reports whether nothing is queued, buffered or in flight. Once no
// packets are in flight, flits cannot exist anywhere (a flit belongs to an
// unejected packet, by flit conservation), so the only possible residue is
// credits still traveling upstream: a few word compares per shard.
func (n *Network) Drained() bool {
	// Packets crossing the chiplet switch are between legs: their first
	// leg's ejection balanced its creation, so InFlight misses them.
	if n.InFlight() != 0 || n.xbar != nil && !n.xbar.Idle() {
		return false
	}
	for _, sh := range n.eng.shards {
		if !sh.creds.Idle() {
			return false
		}
	}
	return true
}
