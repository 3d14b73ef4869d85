package router

import (
	"fmt"
	"math/bits"

	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/telemetry"
)

// NI is a node's network interface. It owns the per-class source queues
// (unbounded, so injection pressure is visible as queueing latency), claims
// free VCs on the router's local input port, streams flits at the link rate
// of one per cycle, and consumes ejected flits from the router's local
// output port.
//
// The NI mirrors the local input port's VC state through the credit wire:
// a VC it has claimed is known free again once every flit has been sent and
// every credit has returned (the same atomic-VC condition routers use).
//
// Streams are value slots (a packet pointer plus a cursor) whose flits are
// synthesized on the fly with msg.FlitAt, so claiming and streaming a
// packet allocates nothing. VC state is shadowed by the same kind of
// occupancy bitmasks the router datapath uses: streamMask (claimed and
// still sending), drainMask (sent, awaiting credits), creditMask
// (credits > 0) and fullMask (credits == Depth).
type NI struct {
	// soa/li: the shard store slot mirroring this NI's activity counter
	// (soa.NIWork) and wake bit, and holding what the shard's NIs share;
	// see Router.soa.
	soa  *SoA
	li   int32
	node int32

	inj FlitWire // NI -> router local input port

	streamMask vcMask // VCs with a live stream
	drainMask  vcMask // VCs with all flits sent, waiting for credits
	creditMask vcMask // VCs with at least one credit
	fullMask   vcMask // VCs with the full credit stock

	rrVC int32
	rrQ  int32 // rotating start of the claim() scan over source queues

	// Activity counters: queued packets, live streams and draining VCs.
	// When all three are zero the NI's Tick is a no-op and the tick engine
	// skips it.
	queued, streaming, drainingN int32

	// attr caches tel.AttributionOn() at wiring.
	attr bool

	// queues holds one source queue per (injector slot, message class)
	// pair, indexed slot*Classes+class. Plain meshes have one slot; a
	// chiplet gateway's crossbar bridge has its own, so a node's traffic
	// never queues behind the foreign backlog (Config.Injectors).
	queues []sim.Queue[*msg.Packet]

	streams []stream // per local-input VC; pkt nil when not streaming
	credits []int32

	// tel is the node's telemetry probe (shared with the router); nil when
	// telemetry is disabled.
	tel *telemetry.Probe

	created, ejected  int64
	flitsOut, flitsIn int64
}

type stream struct {
	pkt  *msg.Packet
	next int
}

// NewNIInStore builds the interface for node as a view over slot li of the
// shard store soa (shared with the node's router; the NI uses the NIWork
// mirror and ArmedN wake bitmap, and the store's ejection hook).
// ConnectInjection attaches its wire.
func NewNIInStore(soa *SoA, li, node int) *NI {
	v := soa.nvc
	ni := &NI{
		soa: soa, li: int32(li), node: int32(node),
		queues:     make([]sim.Queue[*msg.Packet], soa.classes*soa.injectors),
		streams:    make([]stream, v),
		credits:    make([]int32, v),
		creditMask: soa.allMask,
		fullMask:   soa.allMask,
	}
	for i := range ni.queues {
		ni.queues[i] = *sim.NewQueue[*msg.Packet](16)
	}
	for i := range ni.credits {
		ni.credits[i] = int32(soa.depth)
	}
	return ni
}

// ConnectInjection attaches the flit wire to the router's local input port.
func (ni *NI) ConnectInjection(w FlitWire) { ni.inj = w }

// Injection returns the handle of the injection wire.
func (ni *NI) Injection() FlitWire { return ni.inj }

// SetTelemetry attaches a telemetry probe (nil detaches).
func (ni *NI) SetTelemetry(p *telemetry.Probe) {
	ni.tel = p
	ni.attr = p.AttributionOn()
}

// Inject queues a packet for injection at cycle now, stamping its creation
// time, batch and regional/global classification. It is InjectAt on slot 0.
func (ni *NI) Inject(p *msg.Packet, now int64) { ni.InjectAt(0, p, now) }

// InjectAt queues a packet on injector slot's source queue for its class.
// Each slot owns independent queues, and claim() arbitrates across all of
// them round-robin.
func (ni *NI) InjectAt(slot int, p *msg.Packet, now int64) {
	s := ni.soa
	if p.Src != int(ni.node) {
		panic(fmt.Sprintf("router: packet %v injected at node %d", p, ni.node))
	}
	if int(p.Class) >= s.classes {
		panic(fmt.Sprintf("router: packet class %v exceeds configured classes", p.Class))
	}
	if slot < 0 || slot >= s.injectors {
		panic(fmt.Sprintf("router: injector slot %d out of range [0,%d)", slot, s.injectors))
	}
	p.CreatedAt = now
	p.Global = s.regions.Global(p.Src, p.Dst)
	p.EjectedAt = -1
	p.InjectedAt = -1
	// Unconditional (branchless) so pool-recycled and protocol-reused
	// packets always start with a clean blame vector.
	p.Blame = [msg.NumBlame]int32{}
	ni.queues[slot*s.classes+int(p.Class)].Push(p)
	ni.queued++
	s.NIWork[ni.li]++
	s.armN(int(ni.li))
	ni.created++
}

// Created reports how many packets this NI has accepted.
func (ni *NI) Created() int64 { return ni.created }

// Ejected reports how many packets this NI has consumed.
func (ni *NI) Ejected() int64 { return ni.ejected }

// FlitsOut reports how many flits the NI has pushed onto its injection
// link (the "injected" term of the flit-conservation invariant).
func (ni *NI) FlitsOut() int64 { return ni.flitsOut }

// FlitsIn reports how many flits the NI has consumed from its ejection
// link (the "ejected" term of the flit-conservation invariant).
func (ni *NI) FlitsIn() int64 { return ni.flitsIn }

// CreditCount reports the NI's sender-side credit counter for local-input
// VC vc (read-only invariant-checker hook).
func (ni *NI) CreditCount(vc int) int { return int(ni.credits[vc]) }

// DeliverFlit consumes a flit arriving from the router's local output port.
func (ni *NI) DeliverFlit(f msg.Flit, now int64) {
	if f.Pkt.Dst != int(ni.node) {
		panic(fmt.Sprintf("router: %v ejected at node %d", f.Pkt, ni.node))
	}
	ni.flitsIn++
	if f.Type.IsTail() {
		f.Pkt.EjectedAt = now
		ni.ejected++
		if ni.tel != nil && ni.tel.Traced(f.Pkt.ID) {
			ni.tel.Lifecycle(f.Pkt.ID, telemetry.StageEject, now)
		}
		if ni.attr {
			// Fold before onEject: the harness recycles the packet from
			// its OnEject observer, so the blame vector must be consumed
			// first. Runs in the link phase on the shard owning this NI's
			// probe — no other shard touches the packet this phase.
			ni.tel.FoldAttribution(f.Pkt)
		}
		if ni.soa.onEject != nil {
			ni.soa.onEject(f.Pkt, now)
		}
	}
}

// DeliverCredit consumes a credit returned by the router's local input port.
// A credit beyond the depth panics with a niCreditOverflow naming the node
// and the VC; the message is formatted only when the panic prints, so
// DeliverCredit stays within the inlining budget (a call to a helper that
// formats it would cost the inliner as much as the rest of the body).
func (ni *NI) DeliverCredit(vc int) {
	ni.credits[vc]++
	if int(ni.credits[vc]) > ni.soa.depth {
		panic(niCreditOverflow{ni.node, int32(vc)})
	}
	ni.creditMask |= 1 << uint(vc)
	if int(ni.credits[vc]) == ni.soa.depth {
		ni.fullMask |= 1 << uint(vc)
	}
}

// niCreditOverflow is the NI's panic value for a credit it never spent.
type niCreditOverflow struct{ node, vc int32 }

func (e niCreditOverflow) Error() string {
	return fmt.Sprintf("router: NI %d credit overflow on VC %d", e.node, e.vc)
}

// Tick claims VCs for queued packets and streams one flit.
func (ni *NI) Tick(now int64) {
	if ni.queued > 0 {
		ni.claim()
	}
	if ni.streaming > 0 {
		ni.sendOne(now)
	}
	if ni.drainingN > 0 {
		// Free drained VCs whose credits have all returned.
		if m := ni.drainMask & ni.fullMask; m != 0 {
			ni.drainMask &^= m
			freed := bits.OnesCount64(m)
			ni.drainingN -= int32(freed)
			ni.soa.NIWork[ni.li] -= int32(freed)
		}
	}
}

// claim assigns one queued packet to a free local-input VC of its class per
// cycle (one VC allocation per cycle, like a router's VA), rotating over the
// (slot, class) source queues so the slots share the local port fairly.
// With one injector slot the scan degenerates to the per-class rotation a
// plain mesh always had.
func (ni *NI) claim() {
	nq := len(ni.queues)
	for i := 0; i < nq; i++ {
		qi := (int(ni.rrQ) + i) % nq
		q := &ni.queues[qi]
		if q.Empty() {
			continue
		}
		cls := qi % ni.soa.classes
		vc := ni.freeVC(msg.Class(cls))
		if vc < 0 {
			if ni.tel != nil {
				ni.tel.InjectStall()
			}
			continue
		}
		p, _ := q.Pop()
		ni.streams[vc] = stream{pkt: p}
		ni.streamMask |= 1 << uint(vc)
		ni.queued--
		ni.streaming++
		ni.rrQ = int32((qi + 1) % nq)
		return
	}
}

// freeVC finds a free local-input VC for class cls, preferring adaptive VCs
// over the escape VC (the escape VC is a deadlock-safety resource; keeping
// it lightly used at injection helps congested traffic fall back to it).
// A VC is free when it has no stream, is not draining, and holds its full
// credit stock — the intersection of three masks with the class window.
func (ni *NI) freeVC(cls msg.Class) int {
	free := ni.soa.classWindow[cls] &^ (ni.streamMask | ni.drainMask) & ni.fullMask
	if adaptive := free &^ ni.soa.escapeMask; adaptive != 0 {
		return bits.TrailingZeros64(adaptive)
	}
	if free != 0 {
		return bits.TrailingZeros64(free)
	}
	return -1
}

// sendOne pushes at most one flit onto the injection link, round-robin over
// the active streams with credits: the link phase has just shifted the
// wire, so its entry register is free, as it is for a router's ST. The
// rotating scan is a pair of mask lookups: the first candidate at or after
// rrVC, else the first candidate below it.
func (ni *NI) sendOne(now int64) {
	m := ni.streamMask & ni.creditMask
	if m == 0 {
		return
	}
	vc := 0
	if hi := m >> uint(ni.rrVC) << uint(ni.rrVC); hi != 0 {
		vc = bits.TrailingZeros64(hi)
	} else {
		vc = bits.TrailingZeros64(m)
	}
	s := &ni.streams[vc]
	f := msg.FlitAt(s.pkt, s.next)
	f.VC = vc
	if f.Type.IsHead() {
		f.Pkt.InjectedAt = now
		if ni.tel != nil && ni.tel.Traced(f.Pkt.ID) {
			ni.tel.Lifecycle(f.Pkt.ID, telemetry.StageInject, now)
		}
	}
	ni.inj.send(onWire(f))
	ni.flitsOut++
	ni.credits[vc]--
	ni.fullMask &^= 1 << uint(vc)
	if ni.credits[vc] == 0 {
		ni.creditMask &^= 1 << uint(vc)
	}
	s.next++
	if s.next == s.pkt.Size {
		ni.streams[vc] = stream{}
		ni.streamMask &^= 1 << uint(vc)
		ni.drainMask |= 1 << uint(vc)
		ni.streaming--
		ni.drainingN++
	}
	ni.rrVC = int32(vc + 1)
	if int(ni.rrVC) == len(ni.streams) {
		ni.rrVC = 0
	}
}
