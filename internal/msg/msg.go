// Package msg defines the units of communication in the network: packets and
// the flits they are serialized into, together with the message-class and
// traffic-kind vocabulary used by the interference-reduction policies.
package msg

import "fmt"

// Class distinguishes protocol message classes. Classes have disjoint VC
// sets (Duato's methodology for protocol-level deadlock freedom): requests
// and responses never share VCs.
type Class int

const (
	// ClassRequest carries cache requests (short, 1 flit / 16 B).
	ClassRequest Class = iota
	// ClassResponse carries data replies (long, 5 flits: head + 64 B).
	ClassResponse
	// NumClasses is the number of message classes modeled.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "Request"
	case ClassResponse:
		return "Response"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Flit sizes used by the evaluation: short packets are 16 B single-flit,
// long packets carry 64 B of data plus a head flit (5 flits at 128-bit links).
const (
	ShortPacketFlits = 1
	LongPacketFlits  = 5
)

// Blame cause buckets for interference attribution. When a packet's head
// flit stalls for a cycle, the stall is charged to the bucket named after
// whatever blocked it, keyed by the blocker's region class relative to the
// stalled packet. Precedence when causes coincide: escape > foreign >
// native (see DESIGN.md "Observability").
const (
	// BlameNative: blocked by traffic of the packet's own region class.
	BlameNative = iota
	// BlameForeign: blocked by traffic from a foreign region — the
	// interference RAIR exists to reduce.
	BlameForeign
	// BlameEscape: serialized behind the escape-VC discipline (only the
	// masked escape VC was available, or an escape-VC holder blocked us).
	BlameEscape
	// NumBlame is the number of blame buckets.
	NumBlame
)

// Packet is a network packet. Flits reference their packet; per-packet
// fields are written once at creation and treated as read-only afterwards,
// except the latency bookkeeping stamps set by the network.
type Packet struct {
	ID  uint64
	App int // application number carried by the packet (RAIR tags)
	Src int // source node id
	Dst int // destination node id

	// FinalDst is the packet's ultimate destination in a chiplet system,
	// where Dst holds only the current leg's target (the tile gateway on
	// the first leg). Plain meshes leave it equal to Dst. Maintained by the
	// network's chiplet bridge; routers never read it.
	FinalDst int

	Class Class
	Size  int // flits, including head

	// Global reports whether the packet crosses a region boundary
	// (inter-region, "global traffic"); packets inside their source's
	// region are "regional traffic". Precomputed at creation from the
	// region map, since src/dst regions never change in flight.
	Global bool

	// CreatedAt is the cycle the packet entered its source queue.
	// InjectedAt is the cycle its head flit entered the network (left the
	// NI). EjectedAt is the cycle its tail flit was consumed at the
	// destination; -1 while in flight.
	CreatedAt  int64
	InjectedAt int64
	EjectedAt  int64

	// Hops counts router traversals, filled in by the network.
	Hops int

	// Payload carries protocol-level content (e.g. the memory system's
	// request descriptors). The network never inspects it.
	Payload any

	// Blame accumulates stalled-head-flit cycles per cause bucket while
	// attribution telemetry is enabled. Observer-only: the simulation never
	// reads it, so its contents cannot perturb behavior. Reset by the NI at
	// injection so pooled or protocol-reused packets start clean.
	Blame [NumBlame]int32
}

// TotalLatency is the queueing-inclusive packet latency, defined only after
// ejection.
func (p *Packet) TotalLatency() int64 { return p.EjectedAt - p.CreatedAt }

// NetworkLatency is the in-network latency (injection to ejection).
func (p *Packet) NetworkLatency() int64 { return p.EjectedAt - p.InjectedAt }

func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d app%d %d->%d %v size=%d", p.ID, p.App, p.Src, p.Dst, p.Class, p.Size)
}

// FlitType marks a flit's position in its packet.
type FlitType uint8

const (
	// Head starts a packet and carries routing state.
	Head FlitType = iota
	// Body is an interior flit.
	Body
	// Tail ends a packet and releases its VCs.
	Tail
	// HeadTail is a single-flit packet.
	HeadTail
)

func (t FlitType) String() string {
	switch t {
	case Head:
		return "Head"
	case Body:
		return "Body"
	case Tail:
		return "Tail"
	case HeadTail:
		return "HeadTail"
	}
	return fmt.Sprintf("FlitType(%d)", int(t))
}

// IsHead reports whether the flit opens a packet.
func (t FlitType) IsHead() bool { return t == Head || t == HeadTail }

// IsTail reports whether the flit closes a packet.
func (t FlitType) IsTail() bool { return t == Tail || t == HeadTail }

// Flit is the flow-control unit. VC is the virtual channel the flit occupies
// on the link it is currently traversing; it is rewritten at every hop by
// the upstream VC allocator.
type Flit struct {
	Pkt  *Packet
	Type FlitType
	Seq  int // 0-based position within the packet
	VC   int
}

// FlitAt synthesizes the i-th flit of p (VC unassigned) without
// materializing the whole sequence. Streaming senders (the NI) call it once
// per cycle, so packets never allocate a flit slice on the hot path.
func FlitAt(p *Packet, i int) Flit {
	if p.Size < 1 {
		panic("msg: packet with no flits")
	}
	if i < 0 || i >= p.Size {
		panic("msg: flit index out of range")
	}
	t := Body
	switch {
	case p.Size == 1:
		t = HeadTail
	case i == 0:
		t = Head
	case i == p.Size-1:
		t = Tail
	}
	return Flit{Pkt: p, Type: t, Seq: i}
}
