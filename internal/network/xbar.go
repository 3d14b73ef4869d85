package network

import (
	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
)

// The inter-chiplet crossbar's fixed parameters. The switch joins every
// chiplet's gateway PHY; its aggregate lane pool is partitioned DQ-pin style
// into one independent channel per source chiplet (e.g. 64 lanes over 4
// chiplets = 16 lanes each), so one chiplet saturating its channel cannot
// steal serialization bandwidth from another — the switch extends RAIR's
// isolation story across the package.
const (
	// xbarLanes is the total pin/lane pool of the switch, split evenly into
	// one channel per source chiplet.
	xbarLanes = 64
	// xbarPhitsPerFlit is how many lane-cycles (phits) one flit occupies on
	// a full-width channel of xbarLanes lanes (128-bit flit over 8-bit
	// lanes); narrower per-chiplet channels serialize proportionally longer.
	xbarPhitsPerFlit = 16
	// xbarLatency is the fixed switch+PHY crossing time in cycles, on top
	// of serialization.
	xbarLatency = 8
)

// flitCycles is the serialization time of one flit on a per-chiplet channel
// after the lane pool is split chips ways.
func flitCycles(chips int) int64 {
	perChan := max(xbarLanes/chips, 1)
	return int64((xbarPhitsPerFlit + perChan - 1) / perChan)
}

// xbarFlight is a packet crossing the switch: granted at grant, occupying
// its source channel until chanFree and its destination port until outFree,
// delivered at due.
type xbarFlight struct {
	pkt     *msg.Packet
	created int64 // CreatedAt of the first leg, restored after re-injection
	due     int64
}

// Crossbar is the inter-chiplet switch. Each source chiplet owns a
// bandwidth-partitioned ingress channel (an unbounded FIFO draining at the
// channel's serialization rate); each destination chiplet owns one output
// port granted round-robin over the sources. Packets arrive via Submit when
// their first leg ejects at the source gateway and are handed to deliver
// (re-injection at the destination gateway) when their crossing completes.
//
// The crossbar ticks on the coordinator after ejection replay, so it is
// bit-exact across worker counts by construction.
type Crossbar struct {
	chips *topology.Chiplets

	holdPerFlit int64 // serialization cycles per flit on a partitioned channel

	ingress  []*sim.Queue[xbarFlight] // per source chiplet
	chanFree []int64                  // cycle each source channel frees up
	outFree  []int64                  // cycle each destination port frees up
	rr       []int                    // per-destination round-robin source cursor

	flights []xbarFlight // granted, in flight through the switch

	deliver func(f xbarFlight, now int64)

	// OnGrant observes every grant: src/dst chiplets, grant cycle and the
	// serialization hold. Test hook for the channel-partitioning property
	// (never two grants on one source channel overlapping in time).
	OnGrant func(src, dst int, now, hold int64)
}

// NewCrossbar builds the switch for a chiplet system. deliver is called on
// the coordinator when a packet finishes crossing.
func NewCrossbar(chips *topology.Chiplets, deliver func(f xbarFlight, now int64)) *Crossbar {
	n := chips.Chips()
	x := &Crossbar{
		chips:       chips,
		holdPerFlit: flitCycles(n),
		ingress:     make([]*sim.Queue[xbarFlight], n),
		chanFree:    make([]int64, n),
		outFree:     make([]int64, n),
		rr:          make([]int, n),
		deliver:     deliver,
	}
	for i := range x.ingress {
		x.ingress[i] = sim.NewQueue[xbarFlight](4)
	}
	return x
}

// Submit hands the crossbar a packet whose first leg just ejected at its
// source gateway. created preserves the leg-1 CreatedAt stamp so end-to-end
// latency spans both legs.
func (x *Crossbar) Submit(p *msg.Packet, created, now int64) {
	src := x.chips.ChipOf(p.Dst) // leg-1 Dst is the source gateway
	x.ingress[src].Push(xbarFlight{pkt: p, created: created})
}

// Tick advances the switch one cycle: completed crossings deliver first (in
// grant order), then each destination port considers one new grant,
// round-robin over source channels with a waiting head packet.
func (x *Crossbar) Tick(now int64) {
	// Deliver due flights. Grants are appended in deterministic scan order
	// and due times are monotone per (src,dst) pair, so a single in-order
	// compaction pass suffices.
	if len(x.flights) > 0 {
		keep := x.flights[:0]
		for _, f := range x.flights {
			if f.due <= now {
				x.deliver(f, now)
				continue
			}
			keep = append(keep, f)
		}
		x.flights = keep
	}
	// Grant scan: one new packet per destination port per cycle, sources
	// polled round-robin. A grant occupies the source channel and the
	// destination port for the packet's full serialization hold, so two
	// chiplets can never drive one channel in the same cycle.
	n := len(x.ingress)
	for dst := 0; dst < n; dst++ {
		if x.outFree[dst] > now {
			continue
		}
		for i := 0; i < n; i++ {
			src := (x.rr[dst] + i) % n
			if x.chanFree[src] > now {
				continue
			}
			head, ok := x.ingress[src].Peek()
			if !ok || x.chips.ChipOf(head.pkt.FinalDst) != dst {
				continue
			}
			x.ingress[src].Pop()
			hold := x.holdPerFlit * int64(head.pkt.Size)
			x.chanFree[src] = now + hold
			x.outFree[dst] = now + hold
			head.due = now + xbarLatency + hold
			x.flights = append(x.flights, head)
			if x.OnGrant != nil {
				x.OnGrant(src, dst, now, hold)
			}
			x.rr[dst] = (src + 1) % n
			break
		}
	}
}

// Idle reports whether the switch holds no queued or in-flight packets.
func (x *Crossbar) Idle() bool {
	if len(x.flights) > 0 {
		return false
	}
	for _, q := range x.ingress {
		if !q.Empty() {
			return false
		}
	}
	return true
}
