package network

import (
	"fmt"

	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
)

// XBarConfig fixes the inter-chiplet crossbar parameters. The switch joins
// every chiplet's gateway PHY; its aggregate lane pool is partitioned
// DQ-pin style into one independent channel per source chiplet (e.g. 64
// lanes over 4 chiplets = 16 lanes each), so one chiplet saturating its
// channel cannot steal serialization bandwidth from another — the switch
// extends RAIR's isolation story across the package.
type XBarConfig struct {
	// Lanes is the total pin/lane pool of the switch, split evenly into
	// one channel per source chiplet. Default 64.
	Lanes int
	// PhitsPerFlit is how many lane-cycles (phits) one flit occupies on a
	// full-width channel of Lanes lanes; narrower per-chiplet channels
	// serialize proportionally longer. Default 16 (128-bit flit over
	// 8-bit lanes).
	PhitsPerFlit int
	// Latency is the fixed switch+PHY crossing time in cycles, on top of
	// serialization. Default 8.
	Latency int
}

func (c XBarConfig) withDefaults() XBarConfig {
	if c.Lanes == 0 {
		c.Lanes = 64
	}
	if c.PhitsPerFlit == 0 {
		c.PhitsPerFlit = 16
	}
	if c.Latency == 0 {
		c.Latency = 8
	}
	return c
}

func (c XBarConfig) validate(chips int) error {
	switch {
	case c.Lanes < 1:
		return fmt.Errorf("network: crossbar needs at least one lane")
	case c.PhitsPerFlit < 1:
		return fmt.Errorf("network: PhitsPerFlit must be >= 1")
	case c.Latency < 1:
		return fmt.Errorf("network: crossbar latency must be >= 1")
	case chips < 2:
		return fmt.Errorf("network: crossbar needs at least two chiplets")
	}
	return nil
}

// flitCycles is the serialization time of one flit on a per-chiplet channel
// after the lane pool is split chips ways.
func (c XBarConfig) flitCycles(chips int) int64 {
	perChan := c.Lanes / chips
	if perChan < 1 {
		perChan = 1
	}
	return int64((c.PhitsPerFlit + perChan - 1) / perChan)
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
	cfg   XBarConfig
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

	submitted, delivered         int64
	flitsSubmitted, flitsCrossed int64
}

// NewCrossbar builds the switch for a chiplet system. deliver is called on
// the coordinator when a packet finishes crossing.
func NewCrossbar(cfg XBarConfig, chips *topology.Chiplets, deliver func(f xbarFlight, now int64)) (*Crossbar, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(chips.Chips()); err != nil {
		return nil, err
	}
	n := chips.Chips()
	x := &Crossbar{
		cfg:         cfg,
		chips:       chips,
		holdPerFlit: cfg.flitCycles(n),
		ingress:     make([]*sim.Queue[xbarFlight], n),
		chanFree:    make([]int64, n),
		outFree:     make([]int64, n),
		rr:          make([]int, n),
		deliver:     deliver,
	}
	for i := range x.ingress {
		x.ingress[i] = sim.NewQueue[xbarFlight](4)
	}
	return x, nil
}

// Submit hands the crossbar a packet whose first leg just ejected at its
// source gateway. created preserves the leg-1 CreatedAt stamp so end-to-end
// latency spans both legs.
func (x *Crossbar) Submit(p *msg.Packet, created, now int64) {
	src := x.chips.ChipOf(p.Dst) // leg-1 Dst is the source gateway
	x.ingress[src].Push(xbarFlight{pkt: p, created: created})
	x.submitted++
	x.flitsSubmitted += int64(p.Size)
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
				x.delivered++
				x.flitsCrossed += int64(f.pkt.Size)
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
			head.due = now + int64(x.cfg.Latency) + hold
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

// Pending reports packets inside the switch (queued plus crossing).
func (x *Crossbar) Pending() int {
	n := len(x.flights)
	for _, q := range x.ingress {
		n += q.Len()
	}
	return n
}

// Counters reports lifetime packet and flit totals through the switch.
func (x *Crossbar) Counters() (submitted, delivered, flitsSubmitted, flitsCrossed int64) {
	return x.submitted, x.delivered, x.flitsSubmitted, x.flitsCrossed
}
