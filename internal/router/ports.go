package router

import (
	"fmt"
	"math/bits"

	"rair/internal/msg"
	"rair/internal/topology"
)

// vcStage is the per-input-VC pipeline state machine. A VC owns one packet
// at a time (atomic allocation): the head flit walks RC → VA → Active, and
// body/tail flits inherit the allocation while the VC is Active.
type vcStage uint8

const (
	stageIdle vcStage = iota
	stageRC
	stageVA
	stageActive
)

// vcMask is a VC-index bitmask (bit i ↔ VC i of one port). Config.Validate
// caps VCsPerPort at 64 so a whole port always fits one word; the pipeline
// then selects per-stage candidate sets by mask intersection and walks them
// with bits.TrailingZeros64 instead of scanning VC slices. Iteration order
// is ascending VC index, which all arbitration downstream is insensitive to
// (requests are filed into index-addressed rows and granted by the
// arbiters' own rotation order).
type vcMask = uint64

// allVCs returns the mask with bits [0, v) set.
func allVCs(v int) vcMask { return ^vcMask(0) >> (64 - uint(v)) }

// inputVC is one virtual channel of an input port, stored by value in the
// port's slice. Atomic allocation makes its buffer one run of its owner's
// flits, Seq front to front+n-1, which transfer rebuilds with msg.FlitAt.
type inputVC struct {
	owner *msg.Packet
	front int32  // Seq of the oldest buffered flit
	n     uint16 // buffered flits
	idx   uint8
	stage vcStage

	// Route allocation, valid while Active.
	outPort uint8 // a topology.Dir
	outVC   uint8

	// vaOdd is the parity of the failed VA tries; every other attempt is
	// forced onto the escape (DOR) direction so the Duato escape path is
	// always eventually requested under congestion.
	vaOdd bool

	// headPending is true from head arrival until SA pops the head flit —
	// the window in which stall attribution may charge this VC's packet.
	// A packet's un-popped head sits in exactly one VC network-wide, so
	// gating charges on it bounds attribution to one cycle per packet per
	// cycle. Maintained unconditionally (two bool stores per packet per
	// hop); read only when attribution is on.
	headPending bool
}

// InputPort is one input of the router: a set of VC buffers plus the
// wire credits are returned upstream on. The per-stage occupancy masks are
// maintained incrementally at head arrival, VA grant and tail departure, so
// the pipeline visits only the VCs actually in each stage — candidate
// selection is a mask intersection, and removals are single bit clears
// instead of slice splices.
type InputPort struct {
	dir      uint8 // a topology.Dir
	bufFlits int32 // buffered flits across the port's VCs (congestion metric)
	vcs      []inputVC
	credit   CreditWire // back to the upstream sender; unset on unconnected mesh-edge ports

	rcMask     vcMask // VCs whose head arrived (stageRC)
	vaMask     vcMask // VCs waiting for a VC allocation (stageVA)
	activeMask vcMask // VCs streaming flits (stageActive)
	occMask    vcMask // VCs with a non-empty flit buffer

	// native marks the VCs held by a packet native to the router, from
	// head arrival to tail departure (the DPA register OVC_n is its
	// popcount over the ports). Arbitration narrows a request set to the
	// favored class by intersecting with it, never reading a packet.
	native vcMask

	// saElig is the persistent SA_in candidate set: Active VCs with a
	// buffered flit and a downstream credit (or an ejection output). The
	// predicate is deliberately ST-blind — the ST register toggles every
	// busy cycle and is filtered per candidate inside SA instead — so the
	// bit moves only on occupancy and credit edges: body-flit arrival,
	// credit return onto a dry streamed output VC, VA grant, and the SA
	// pop itself. SA walks only this set instead of rescanning every
	// active VC, making a cycle's allocation cost proportional to the
	// VCs that can actually move.
	saElig vcMask
}

// deliver accepts a flit arriving from the upstream link into a VC of depth
// flits. It extends the VC's run, so it rejects what no run can take: a head
// into a busy VC, a flit of another packet, a flit out of sequence, and a
// flit into a full VC (a flow-control violation).
func (p *InputPort) deliver(f msg.Flit, depth int) {
	vc := &p.vcs[f.VC]
	if f.Type.IsHead() {
		if vc.owner != nil {
			p.reject(f, "head flit on a busy VC")
		}
		vc.owner = f.Pkt
		vc.front = 0
		vc.stage = stageRC
		vc.vaOdd = false
		vc.headPending = true
		p.rcMask |= 1 << uint(f.VC)
	} else if vc.owner != f.Pkt {
		p.reject(f, "body flit of another packet")
	}
	switch {
	case f.Seq != int(vc.front)+int(vc.n):
		p.reject(f, "flit out of sequence")
	case int(vc.n) == depth:
		p.reject(f, "VC overflow (flow-control violation)")
	}
	vc.n++
	p.occMask |= 1 << uint(f.VC)
	p.bufFlits++
}

// reject panics for a flit deliver cannot take, naming why and the run.
//
//go:noinline
func (p *InputPort) reject(f msg.Flit, why string) {
	vc := &p.vcs[f.VC]
	panic(fmt.Sprintf("router: %s: %v seq %d on %s VC %d (owner %v, front %d, %d buffered)",
		why, f.Pkt, f.Seq, topology.Dir(p.dir), f.VC, vc.owner, vc.front, vc.n))
}

// outputVC is one virtual channel of an output port: the credit counter for
// the downstream buffer and the atomic allocation state. Its VC index is its
// position in the port's slice.
type outputVC struct {
	owner    *msg.Packet
	credits  int32
	tailSent bool

	// Reverse map to the input VC streaming into this output VC, valid
	// while the port's streamMask bit is set. Atomic allocation makes the
	// map single-valued: an output VC is owned by exactly one packet,
	// which occupies exactly one upstream input VC until its tail pops.
	inPort int8
	inVC   int8
}

// OutputPort is one output of the router: per-VC credit/allocation state,
// the downstream flit wire, and the ST pipeline register holding the flit
// that won SA last cycle in its 16-byte wire form (occupied while the
// port's Router.stBusy bit is set).
//
// Three credit-derived masks shadow the per-VC counters so the hot-path
// queries are single-bit tests: creditMask (credits > 0, read by SA_in's
// eligibility check), fullMask (credits == Depth, the atomic-reuse release
// condition), and freeMask (owner == nil, VA_in's free-VC search window;
// its complement counts the owned VCs). drainMask marks owned VCs whose
// tail has been sent, awaiting full credit return.
type OutputPort struct {
	dir       uint8 // a topology.Dir
	ejection  bool  // Local port: the sink accepts unconditionally
	creditSum int32 // total credits across the port's VCs

	vcs  []outputVC
	wire FlitWire // downstream; unset on unconnected mesh-edge ports
	st   wireFlit

	freeMask   vcMask // VCs with no owner (VA_in candidates)
	creditMask vcMask // VCs with at least one downstream credit
	fullMask   vcMask // VCs with the full credit stock
	drainMask  vcMask // owned VCs with tail sent, awaiting credit return
	streamMask vcMask // owned VCs whose tail has NOT been sent (live input streams)
}

// deliverCredit accepts a returned credit from the downstream router. A
// credit beyond the depth panics with a creditOverflow naming the port and
// the VC; the message is formatted only when the panic prints, so
// deliverCredit inlines into Router.DeliverCredit.
func (p *OutputPort) deliverCredit(vc int, depth int) {
	v := &p.vcs[vc]
	v.credits++
	if int(v.credits) > depth {
		panic(creditOverflow{p.dir, int32(vc)})
	}
	p.creditSum++
	p.creditMask |= 1 << uint(vc)
	if int(v.credits) == depth {
		p.fullMask |= 1 << uint(vc)
	}
}

// creditOverflow is an output port's panic value for a credit it never
// spent.
type creditOverflow struct {
	dir uint8 // a topology.Dir
	vc  int32
}

func (e creditOverflow) Error() string {
	return fmt.Sprintf("router: credit overflow on %s VC %d", topology.Dir(e.dir), e.vc)
}

// free releases output VCs whose packets have fully drained downstream:
// tail sent and every credit returned (atomic VC reuse condition). Ejection
// VCs never consume credits, so they free as soon as the tail is sent. The
// releasable set is exactly drainMask ∩ fullMask — a two-word intersection,
// visited only when the router saw a credit arrival or a sent tail on this
// port since the last scan (the router-level freeable port mask).
func (p *OutputPort) free() {
	m := p.drainMask & p.fullMask
	if m == 0 {
		return
	}
	p.drainMask &^= m
	p.freeMask |= m
	for ; m != 0; m &= m - 1 {
		v := &p.vcs[bits.TrailingZeros64(m)]
		v.owner = nil
		v.tailSent = false
	}
}
