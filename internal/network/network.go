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
// The network also runs the systolic congestion propagation DBAR relies on:
// each cycle a router learns its neighbor's occupancy (one cycle old) and
// the neighbor's view of the routers beyond it (one more cycle old per
// hop). Propagation only runs when the configured selection function
// actually consumes the signal (routing.CongestionConsumer), so schemes on
// local selection don't pay for it.
package network

import (
	"fmt"
	"runtime"
	"slices"

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
	cong    bool
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
		cong:       routing.ConsumesCongestion(p.Sel),
		tel:        p.Telemetry,
		chiplets:   p.Chiplets,
		bridgeSlot: bridgeSlot,
	}
	if n.tel != nil {
		n.probes = make([]*telemetry.Probe, mesh.N())
	}
	// One dense state store per shard: routers and NIs are built as views
	// into their shard's store (struct-of-arrays slabs + work mirrors).
	part := newPartition(mesh.N(), p.Workers)
	soas := make([]*router.SoA, part.s)
	for i := range soas {
		lo, hi := part.bounds(i)
		soas[i] = router.NewSoA(p.Router, hi-lo)
	}
	n.eng = newEngine(mesh, n.routers, n.nis, part, soas)
	// Routers before NIs: built in one pass, their small allocations
	// interleave and the compute phase measured 2 % slower at 32×32.
	for _, sh := range n.eng.shards {
		for li := range sh.routers {
			id := sh.lo + li
			app := p.Regions.AppAt(id)
			r := router.NewInStore(p.Router, id, app, mesh, p.Regions, p.Alg, p.Sel, p.Policy, sh.soa, li)
			if n.cong {
				// Congestion travels at most one mesh edge along a dimension.
				r.EnableCongestion(max(mesh.W, mesh.H) - 1)
			}
			if n.tel != nil {
				n.probes[id] = n.tel.ProbeFor(id, app)
				r.SetTelemetry(n.probes[id])
			}
			n.routers[id] = r
		}
	}
	for _, sh := range n.eng.shards {
		// Phase 1 buffers ejections per shard; Tick replays them in node order.
		var onEject func(*msg.Packet, int64)
		if p.OnEject != nil || p.Recycle != nil || p.Chiplets != nil {
			onEject = func(pkt *msg.Packet, now int64) {
				sh.ejections = append(sh.ejections, ejection{pkt, now})
			}
		}
		for li := range sh.nis {
			id := sh.lo + li
			ni := router.NewNIInStore(p.Router, id, p.Regions, onEject, sh.soa, li)
			if n.tel != nil {
				ni.SetTelemetry(n.probes[id])
			}
			n.nis[id] = ni
		}
	}
	if p.Profile {
		n.eng.prof = newEngineProf(len(n.eng.shards))
	}
	// The wiring table: the engine's wires and the checker's audits derive
	// from it; only a checker keeps it.
	links := linkTable(mesh, p.Chiplets, p.Router.LinkLatency, n.nis)
	for _, rec := range links {
		n.connect(rec)
	}
	n.eng.bind(links)
	if p.Chiplets != nil {
		n.xbar = NewCrossbar(p.Chiplets, n.xbarDeliver)
	}
	if p.Check != nil {
		n.check = invariant.NewChecker(*p.Check, invariant.Target{
			Depth: p.Router.Depth, VCs: p.Router.VCsPerPort(), Mesh: mesh,
			Routers: n.routers, NIs: n.nis, Links: links,
			Telemetry: n.tel,
			Quiesce:   n.auditQuiescence,
		})
	}
	if p.Workers > 1 {
		runtime.SetFinalizer(n, (*Network).Close)
	}
	return n
}

// linkTable lays out the wiring: one new link per direction per adjacent
// router pair, then each node's injection and ejection link (which its NI
// brought along) in ascending node order. In a chiplet system, pairs
// straddling a tile edge are never wired — the crossbar is the only path
// between tiles.
func linkTable(mesh *topology.Mesh, chips *topology.Chiplets, latency int, nis []*router.NI) []router.LinkRecord {
	// At most four mesh links and two NI links leave or enter a node.
	links := make([]router.LinkRecord, 0, 6*mesh.N())
	for id := 0; id < mesh.N(); id++ {
		for _, d := range [...]topology.Dir{topology.East, topology.South} {
			nb := mesh.Neighbor(id, d)
			if nb == -1 || chips != nil && !chips.SameChip(id, nb) {
				continue
			}
			here, there := router.LinkEnd{Node: id, Dir: d}, router.LinkEnd{Node: nb, Dir: d.Opposite()}
			links = append(links,
				router.LinkRecord{L: router.NewLink(latency), Src: here, Dst: there},
				router.LinkRecord{L: router.NewLink(latency), Src: there, Dst: here})
		}
	}
	for id, ni := range nis {
		inj, ej := ni.Links()
		port, end := router.LinkEnd{Node: id, Dir: topology.Local}, router.LinkEnd{Node: id, NI: true}
		links = append(links, router.LinkRecord{L: inj, Src: end, Dst: port}, router.LinkRecord{L: ej, Src: port, Dst: end})
	}
	return links
}

// connect attaches one link of the table to the routers at its ends (an NI
// came with its links).
func (n *Network) connect(rec router.LinkRecord) {
	src, dst := rec.Src, rec.Dst
	if !src.NI {
		n.routers[src.Node].ConnectOut(src.Dir, rec.L)
	}
	if !dst.NI {
		n.routers[dst.Node].ConnectIn(dst.Dir, rec.L)
	}
}

// Close stops the tick engine's worker goroutines. Safe to call multiple
// times; a no-op for serial networks.
func (n *Network) Close() {
	runtime.SetFinalizer(n, nil)
	n.eng.close()
}

// Workers reports the number of tick-engine shards actually in use.
func (n *Network) Workers() int { return len(n.eng.shards) }

// CongestionEnabled reports whether DBAR congestion propagation runs.
func (n *Network) CongestionEnabled() bool { return n.cong }

// Mesh returns the topology.
func (n *Network) Mesh() *topology.Mesh { return n.mesh }

// Checker returns the run's invariant checker (nil when unchecked).
func (n *Network) Checker() *invariant.Checker { return n.check }

// Tick advances the whole network one cycle through the engine's
// barrier-separated phases.
func (n *Network) Tick(now int64) {
	n.eng.now = now
	if n.eng.prof != nil {
		n.eng.prof.cycles++
	}
	// Phase 1: links deliver.
	n.eng.run(phaseLinks)
	// Phase 2: routers and NIs compute.
	n.eng.run(phaseCompute)
	// Phase 3: propagate congestion one hop (only if anything reads it).
	if n.cong {
		n.eng.run(phaseCongFill)
		n.eng.run(phaseCongSwap)
	}
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
// credits still traveling upstream — and a credit wire is busy exactly when
// its dirty bit is set (local wires) or its delay line is occupied (foreign
// wires), making the check a few word compares per shard.
func (n *Network) Drained() bool {
	if n.InFlight() != 0 {
		return false
	}
	// Packets crossing the chiplet switch are between legs: their first
	// leg's ejection balanced its creation, so InFlight misses them.
	if n.xbar != nil && !n.xbar.Idle() {
		return false
	}
	for _, sh := range n.eng.shards {
		for _, w := range sh.credDirty {
			if w != 0 {
				return false
			}
		}
		for _, i := range sh.foreignCred {
			if sh.cred[i].link.CreditsBusy() {
				return false
			}
		}
	}
	return true
}

// auditQuiescence verifies the wake machinery against ground truth: every
// component skipped by the armed sweep must be truly quiescent, every work
// mirror must equal its component's counter sum, and every wire skipped by
// the dirty sweep must be idle. The invariant checker calls it at tick
// barriers; it is read-only.
func (n *Network) auditQuiescence() error {
	for si, sh := range n.eng.shards {
		for li, r := range sh.routers {
			rc, va, act, st := r.WorkCounters()
			sum := rc + va + act + st
			if int(sh.soa.Work[li]) != sum {
				return fmt.Errorf("shard %d router %d: work mirror %d != counter sum %d",
					si, r.Node(), sh.soa.Work[li], sum)
			}
			armed := sh.soa.ArmedRouter(li)
			if armed != (sum > 0) {
				return fmt.Errorf("shard %d router %d: armed=%v with work %d", si, r.Node(), armed, sum)
			}
			if !armed && r.BufferedFlits() > 0 {
				return fmt.Errorf("shard %d router %d: skipped with %d buffered flits",
					si, r.Node(), r.BufferedFlits())
			}
		}
		for li, ni := range sh.nis {
			q, str, drn := ni.WorkCounters()
			sum := q + str + drn
			if int(sh.soa.NIWork[li]) != sum {
				return fmt.Errorf("shard %d NI %d: work mirror %d != counter sum %d",
					si, ni.Node(), sh.soa.NIWork[li], sum)
			}
			if armed := sh.soa.ArmedNI(li); armed != (sum > 0) {
				return fmt.Errorf("shard %d NI %d: armed=%v with work %d", si, ni.Node(), armed, sum)
			}
		}
		for i, w := range sh.flit {
			if w.link.FlitsBusy() && !marked(sh.flitDirty, sh.foreignFlit, i) {
				return fmt.Errorf("shard %d: busy flit wire %d not marked dirty", si, i)
			}
		}
		for i, w := range sh.cred {
			if w.link.CreditsBusy() && !marked(sh.credDirty, sh.foreignCred, i) {
				return fmt.Errorf("shard %d: busy credit wire %d not marked dirty", si, i)
			}
		}
	}
	return nil
}

// marked reports whether the link sweep will visit wire i: its dirty bit is
// set, or it is polled as foreign.
func marked(dirty []uint64, foreign []int32, i int) bool {
	return dirty[i>>6]>>(uint(i)&63)&1 == 1 || slices.Contains(foreign, int32(i))
}
