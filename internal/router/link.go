package router

import (
	"fmt"

	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
)

// Link is a unidirectional flit channel with its paired reverse credit
// wire. Flits flow downstream with the configured link latency; credits
// (identified by VC index) flow upstream with a one-cycle delay. The credit
// wire carries vc+1 in a byte, since a DelayLine slot holding zero is empty
// (Config.Validate caps VCs per port at 64).
//
// Links are the only coupling between routers (and between NIs and
// routers): they are shifted exactly once per cycle by the network before
// any component ticks, which makes the whole simulation independent of
// component iteration order.
type Link struct {
	flits   sim.DelayLine[msg.Flit]
	credits sim.DelayLine[uint8]

	// Wake marks: the tick engine's per-shard dirty-wire bitmaps. A push
	// onto a wire sets bit flitBit or credBit of its word in the bitmap of
	// the shard that owns (shifts and delivers) it, so quiescent wires are
	// never even visited. A wire whose pusher lives on a different shard
	// than its owner carries no mark (the owner polls it instead); both
	// words are nil outside an engine. Byte bit indices keep the link at
	// 120 bytes, in the allocator's 128-byte size class: two aligned cache
	// lines (DESIGN.md "Idle-path elision").
	flitWake, credWake *uint64
	flitBit, credBit   uint8
}

// LinkEnd is one end of a link: port Dir of node's router, or, when NI is
// set, the node's network interface.
type LinkEnd struct {
	Node int
	Dir  topology.Dir
	NI   bool
}

func (e LinkEnd) String() string {
	if e.NI {
		return fmt.Sprintf("ni%d", e.Node)
	}
	return fmt.Sprintf("r%d", e.Node)
}

// LinkRecord is one row of a network's wiring table: a link, the end that
// sends flits on it (and receives its credits) and the end that receives
// them. The table is the only description of what is wired to what; the
// tick engine and the invariant checker both read it.
type LinkRecord struct {
	L        *Link
	Src, Dst LinkEnd
}

// Key names the link wherever one is reported: "r3>r4" for the flit wire
// from router 3 to router 4, "ni3>r3" and "r3>ni3" for node 3's injection
// and ejection link.
func (rec LinkRecord) Key() string { return rec.Src.String() + ">" + rec.Dst.String() }

// NewLink returns a link with the given downstream flit latency.
func NewLink(latency int) *Link {
	l := &Link{}
	l.flits.Init(latency)
	l.credits.Init(1)
	return l
}

// SetFlitWake attaches the dirty-bitmap mark set by SendFlit, bit 0-63 of
// word (nil word detaches: the wire is then polled by its owner instead).
func (l *Link) SetFlitWake(word *uint64, bit uint8) { l.flitWake, l.flitBit = word, bit }

// SetCreditWake attaches the dirty-bitmap mark set by SendCredit.
func (l *Link) SetCreditWake(word *uint64, bit uint8) { l.credWake, l.credBit = word, bit }

// ShiftFlits advances only the downstream flit wire. The tick engine shifts
// the two directions of a link from different shards (the flit wire belongs
// to the receiver's shard, the credit wire to the sender's), so each wire
// must advance independently. An idle wire is skipped entirely: a DelayLine
// with nothing in flight cannot have a pending push either, so not shifting
// it is exactly equivalent to shifting it.
func (l *Link) ShiftFlits() (f msg.Flit, ok bool) {
	if !l.flits.Busy() {
		return f, false
	}
	return l.flits.Shift()
}

// ShiftCredits advances only the upstream credit wire (see ShiftFlits).
func (l *Link) ShiftCredits() (vc int, ok bool) {
	if !l.credits.Busy() {
		return 0, false
	}
	c, ok := l.credits.Shift()
	return int(c) - 1, ok
}

// FlitsBusy reports whether any flit is in flight downstream.
func (l *Link) FlitsBusy() bool { return l.flits.Busy() }

// CreditsBusy reports whether any credit is in flight upstream.
func (l *Link) CreditsBusy() bool { return l.credits.Busy() }

// SendFlit pushes a flit downstream. At most one flit per cycle may enter
// (the link is one flit wide); the router's ST stage guarantees this.
func (l *Link) SendFlit(f msg.Flit) {
	l.flits.Push(f)
	if l.flitWake != nil {
		*l.flitWake |= 1 << (l.flitBit & 63)
	}
}

// CanSendFlit reports whether the downstream wire can accept a flit this
// cycle.
func (l *Link) CanSendFlit() bool { return l.flits.CanPush() }

// SendCredit pushes a credit for vc upstream.
func (l *Link) SendCredit(vc int) {
	l.credits.Push(uint8(vc + 1))
	if l.credWake != nil {
		*l.credWake |= 1 << (l.credBit & 63)
	}
}

// CanSendCredit reports whether the upstream wire can accept a credit this
// cycle. One credit per cycle matches one flit dequeued per input port per
// cycle (SA_in grants at most one).
func (l *Link) CanSendCredit() bool { return l.credits.CanPush() }

// InFlightFlits reports flits on the downstream wire.
func (l *Link) InFlightFlits() int { return l.flits.Len() }

// AuditFlits calls fn for every in-flight downstream flit, oldest first
// (read-only invariant-checker hook; barrier-only).
func (l *Link) AuditFlits(fn func(msg.Flit)) { l.flits.Each(fn) }

// AuditCredits calls fn for every in-flight upstream credit's VC index
// (read-only invariant-checker hook; barrier-only).
func (l *Link) AuditCredits(fn func(int)) { l.credits.Each(func(c uint8) { fn(int(c) - 1) }) }
