package router

import (
	"fmt"
	"math/bits"
	"slices"

	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
)

// Links are the only coupling between routers and NIs, and every wire
// shifts once per cycle before any component ticks, so results cannot
// depend on component order. A link's flit wire is a row of its receiver's
// shard's FlitSlab, its credit wire a byte of its sender's CreditSlab, and
// the pushing end holds a handle to it (DESIGN.md "The wire slab").

// LinkEnd is one end of a link: port Dir of node's router, or, when NI is
// set, the node's network interface.
type LinkEnd struct {
	Node int
	Dir  topology.Dir
	NI   bool
}

// String names the end in reports: "r3>r4" is the link from router 3 to
// router 4, "ni3>r3" node 3's injection link.
func (e LinkEnd) String() string {
	if e.NI {
		return fmt.Sprintf("ni%d", e.Node)
	}
	return fmt.Sprintf("r%d", e.Node)
}

// wireFlit is a flit on a wire in 16 bytes (msg.Flit is 32), losslessly:
// an input VC's run numbers flits in an int32 and Config.Validate caps VCs
// at 64. It always has a packet, so the zero value is DelayLine's empty slot.
type wireFlit struct {
	pkt *msg.Packet
	seq uint32
	vc  uint8
	typ msg.FlitType
}

func onWire(f msg.Flit) wireFlit { return wireFlit{f.Pkt, uint32(f.Seq), uint8(f.VC), f.Type} }

func (w wireFlit) flit() msg.Flit {
	return msg.Flit{Pkt: w.pkt, Type: w.typ, Seq: int(w.seq), VC: int(w.vc)}
}

// wireEnd is a wire's receiver: its index in the shard, a router's port.
type wireEnd struct {
	to   int32
	port uint8
}

// flitRow is one flit wire, its index its dirty bit: the delay line (two
// flits inline, a longer ring behind ext) and the receiver, 56 bytes padded
// to a 64-byte line. The padding is last: a slab of 513 B to 32 KB starts 8
// bytes past a line (the allocator's header on a pointerful object of that
// size), so the padding takes the line break and the used bytes share one.
type flitRow struct {
	line sim.DelayLine[wireFlit]
	end  wireEnd
	_    [8]byte
}

// wires is a slab's bookkeeping. A push onto a shard-local wire sets its
// dirty bit, so the sweep visits only wires with something in flight; a
// wire pushed from another shard must never write this shard's bitmap, so
// it is polled from foreign instead (only mesh links cross shards).
type wires struct {
	dirty   []uint64
	foreign []int32
	ni      int // first wire delivering to an NI
	lo      int // node id of the shard's first node
}

func newWires(n, lo int) wires { return wires{dirty: make([]uint64, (n+63)/64), lo: lo} }

func (w *wires) add(i int, end LinkEnd, foreign bool) wireEnd {
	if !end.NI {
		w.ni = i + 1
	}
	if foreign {
		w.foreign = append(w.foreign, int32(i))
	}
	return wireEnd{to: int32(end.Node - w.lo), port: uint8(end.Dir)}
}

func (w *wires) mark(i int32) { w.dirty[i>>6] |= 1 << (uint(i) & 63) }

// FlitSlab is one shard's flit wires in sweep order: router receivers,
// then NIs (ejection wires in node order, the order ejections replay in).
type FlitSlab struct {
	rows []flitRow
	wires
}

// Init empties s for n wires of the shard whose nodes start at lo.
func (s *FlitSlab) Init(n, lo int) { *s = FlitSlab{make([]flitRow, 0, n), newWires(n, lo)} }

// Add appends a flit wire delivering to end (routers before NIs) and
// returns its sender's handle; a foreign wire's sender is on another shard.
func (s *FlitSlab) Add(latency int, end LinkEnd, foreign bool) FlitWire {
	i := len(s.rows)
	s.rows = append(s.rows, flitRow{end: s.add(i, end, foreign)})
	s.rows[i].line.Init(latency)
	return FlitWire{s: s, i: int32(i), mark: !foreign}
}

// Sweep is the link phase over the slab: every marked and every foreign
// wire shifts and delivers what completes its traversal; a bit clears once
// its wire is idle. Rows go in ascending order (ejection order), foreign
// rows last: router deliveries commute. It returns the marked rows visited.
func (s *FlitSlab) Sweep(routers []*Router, nis []*NI, now int64) (visits int64) {
	rows, ni := s.rows, s.ni
	for wi, w := range s.dirty {
		if w == 0 {
			continue
		}
		keep := uint64(0)
		base := wi << 6
		for m := w; m != 0; m &= m - 1 {
			i := base + bits.TrailingZeros64(m)
			visits++
			row := &rows[i]
			if f, ok := row.line.Shift(); ok {
				if i < ni {
					routers[row.end.to].DeliverFlit(topology.Dir(row.end.port), f.flit())
				} else {
					nis[row.end.to].DeliverFlit(f.flit(), now)
				}
			}
			if row.line.Busy() {
				keep |= 1 << (uint(i) & 63)
			}
		}
		s.dirty[wi] = keep
	}
	for _, i := range s.foreign {
		if f, ok := rows[i].line.Shift(); ok {
			routers[rows[i].end.to].DeliverFlit(topology.Dir(rows[i].end.port), f.flit())
		}
	}
	return visits
}

// FlitWire is a sender's handle on its flit wire (mark: not foreign).
type FlitWire struct {
	s    *FlitSlab
	i    int32
	mark bool
}

// send pushes f: at most one flit per cycle (ST guarantees it).
func (w FlitWire) send(f wireFlit) {
	w.s.rows[w.i].line.Push(f)
	if w.mark {
		w.s.mark(w.i)
	}
}

// Each calls fn for every flit in flight, oldest first (read-only).
func (w FlitWire) Each(fn func(msg.Flit)) { w.s.rows[w.i].line.Each(func(f wireFlit) { fn(f.flit()) }) }

// CreditSlab is one shard's credit wires in sweep order, routers before
// NIs. A credit wire has latency 1, so a byte is the whole wire: vc+1 of
// the credit in flight, 0 when none, which is also "the entry is free".
type CreditSlab struct {
	vcs  []uint8
	ends []wireEnd
	wires
}

// Init empties s for n wires of the shard whose nodes start at lo.
func (s *CreditSlab) Init(n, lo int) {
	*s = CreditSlab{make([]uint8, 0, n), make([]wireEnd, 0, n), newWires(n, lo)}
}

// Add appends a credit wire delivering to end (see FlitSlab.Add).
func (s *CreditSlab) Add(end LinkEnd, foreign bool) CreditWire {
	i := len(s.vcs)
	s.vcs = append(s.vcs, 0)
	s.ends = append(s.ends, s.add(i, end, foreign))
	return CreditWire{s: s, i: int32(i), mark: !foreign}
}

// Sweep delivers every credit in flight (see FlitSlab.Sweep); latency 1
// empties every wire visited, so each dirty word clears whole.
func (s *CreditSlab) Sweep(routers []*Router, nis []*NI) (visits int64) {
	for wi, w := range s.dirty {
		if w == 0 {
			continue
		}
		base := wi << 6
		for m := w; m != 0; m &= m - 1 {
			visits++
			s.deliver(base+bits.TrailingZeros64(m), routers, nis)
		}
		s.dirty[wi] = 0
	}
	for _, i := range s.foreign {
		if s.vcs[i] != 0 {
			s.deliver(int(i), routers, nis)
		}
	}
	return visits
}

func (s *CreditSlab) deliver(i int, routers []*Router, nis []*NI) {
	vc := int(s.vcs[i]) - 1
	s.vcs[i] = 0
	if e := s.ends[i]; i < s.ni {
		routers[e.to].DeliverCredit(topology.Dir(e.port), vc)
	} else {
		nis[e.to].DeliverCredit(vc)
	}
}

// Idle reports whether no credit is in flight: no dirty bit is set and no
// foreign wire holds a credit.
func (s *CreditSlab) Idle() bool {
	return !slices.ContainsFunc(s.dirty, func(w uint64) bool { return w != 0 }) &&
		!slices.ContainsFunc(s.foreign, func(i int32) bool { return s.vcs[i] != 0 })
}

// CreditWire is a sender's handle on its credit wire (see FlitWire).
type CreditWire struct {
	s    *CreditSlab
	i    int32
	mark bool
}

// send pushes a credit for vc: one per cycle, as SA_in dequeues one flit.
func (w CreditWire) send(vc int) {
	if w.s.vcs[w.i] != 0 {
		panic("router: credit wire busy (more than one dequeue per port per cycle)")
	}
	w.s.vcs[w.i] = uint8(vc + 1)
	if w.mark {
		w.s.mark(w.i)
	}
}

// InFlight is the VC of the credit in flight (-1: none).
func (w CreditWire) InFlight() int { return int(w.s.vcs[w.i]) - 1 }
