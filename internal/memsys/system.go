package memsys

import (
	"fmt"
	"math/bits"
	"slices"

	"rair/internal/msg"
	"rair/internal/region"
	"rair/internal/sim"
)

// SystemConfig is the full-system configuration of Table 1.
type SystemConfig struct {
	// L1Size/L1Ways: private I/D L1 (32 KB, 2-way; zero-cycle lookup).
	L1Size, L1Ways int
	// L2Size/L2Ways: shared L2 bank per node (256 KB, 16-way, 6-cycle).
	L2Size, L2Ways int
	L2Latency      int64
	// MemLatency is the memory-controller access time (128 cycles).
	MemLatency int64
	// Block is the cache block size (64 B).
	Block int
	// MSHRs bounds outstanding misses per core.
	MSHRs int
	// SharedFrac is the probability that a block's home L2 bank lies
	// outside its application's region (the residual inter-region
	// traffic after the cooperative-cache optimization).
	SharedFrac float64
}

// DefaultSystemConfig returns Table 1's parameters with a 10% out-of-region
// home fraction.
func DefaultSystemConfig() SystemConfig {
	return SystemConfig{
		L1Size: 32 << 10, L1Ways: 2,
		L2Size: 256 << 10, L2Ways: 16, L2Latency: 6,
		MemLatency: 128,
		Block:      64,
		MSHRs:      16,
		SharedFrac: 0.10,
	}
}

// Access is one memory reference from a core.
type Access struct {
	Addr  uint64
	Write bool
}

// AddressStream produces a core's memory reference stream. Implementations
// live in the workload package (the PARSEC proxies).
type AddressStream interface {
	// Next returns the next access. issued reports whether the core
	// issues a memory access this cycle at all (modeling compute gaps);
	// when false the returned Access is ignored.
	Next(rng *sim.RNG) (a Access, issued bool)
}

// reqKind distinguishes protocol messages (carried in packet payloads).
type reqKind uint8

// Requests precede responses, which travel in the response class.
const (
	l2Request  reqKind = iota // core -> home L2 bank
	mcRequest                 // L2 bank -> memory controller
	invRequest                // L2 bank -> sharer core (coherence invalidation)
	dataReply                 // bank or MC -> core
	invAck                    // sharer core -> L2 bank
)

type payload struct {
	kind  reqKind
	addr  uint64
	core  int
	write bool
}

// message is one protocol message: the packet the network carries and the
// request it describes, in one allocation the system recycles. The packet's
// Payload points back at its message, so nothing is boxed.
type message struct {
	pkt  msg.Packet
	pl   payload
	next *message // the wheel slot, free list or retired list it is on
}

// fifo is a wheel slot: the messages due in one cycle, in send order.
type fifo struct{ head, tail *message }

// Injector submits a packet at a node's NI (wired to the network by the
// caller).
type Injector func(node int, p *msg.Packet, now int64)

// System is the chip's memory system: one core+L1+L2-bank per node, memory
// controllers at the corners, all communicating over the NoC. It implements
// sim.Tickable (tick it before the network each cycle) and must also
// receive every ejected packet via HandleEject.
//
// Steady-state Tick and HandleEject allocate nothing: messages recycle
// through a free list and wait out delays on a timing wheel, both linked
// through the messages. An ejected message is reused from the next Tick on,
// as the observers after HandleEject (the statistics collector) still read
// its packet; the network must not recycle these packets itself.
type System struct {
	cfg     SystemConfig
	regions *region.Map
	inject  Injector
	rng     *sim.RNG

	cores []*core
	banks []*Cache
	// homes[app] is app's region node list, the in-region home banks.
	homes [][]int
	// dirs is the per-bank sharer directory: block -> bitmask of sharer
	// cores. Writes to shared blocks trigger L1 invalidations (a
	// lightweight MSI-style protocol: the substrate's "multiple message
	// classes" of Section IV.D). Entries outlive the bank's copy of the
	// block, so they cannot live in the cache ways.
	dirs []map[uint64]uint64
	mcs  []int // MC node ids

	// wheel holds delayed protocol actions (bank latency, memory latency)
	// by due cycle modulo its length, a power of two above both latencies.
	wheel []fifo
	// free and retired are stacks: messages ready for reuse, and those
	// ejected since the last Tick.
	free, retired *message

	nextID uint64

	// Counters.
	l1Hits, l1Misses   uint64
	l2Hits, l2Misses   uint64
	packetsInjected    uint64
	mergesOnOutstand   uint64
	stalledCoreCycles  uint64
	finishedCoreMisses uint64
	invalidationsSent  uint64
	invAcksReceived    uint64
	l1Invalidated      uint64
}

type core struct {
	node   int
	app    int
	l1     *Cache
	stream AddressStream
	mshr   []uint64 // block addresses in flight, at most cfg.MSHRs
}

// New builds the memory system over the given region map. streams maps node
// id to that core's address stream; nodes with a nil stream have an idle
// core (their L2 bank still serves requests).
func New(cfg SystemConfig, regions *region.Map, streams []AddressStream, seed uint64, inject Injector) *System {
	mesh := regions.Mesh()
	if len(streams) != mesh.N() {
		panic(fmt.Sprintf("memsys: %d streams for %d nodes", len(streams), mesh.N()))
	}
	corners := mesh.Corners()
	s := &System{
		cfg:     cfg,
		regions: regions,
		inject:  inject,
		rng:     sim.NewRNG(seed),
		banks:   make([]*Cache, mesh.N()),
		homes:   make([][]int, regions.NumApps()),
		dirs:    make([]map[uint64]uint64, mesh.N()),
		mcs:     corners[:],
		wheel:   make([]fifo, 1<<bits.Len64(uint64(max(cfg.L2Latency, cfg.MemLatency, 0)))),
	}
	for app := range s.homes {
		s.homes[app] = regions.Nodes(app)
	}
	for n := 0; n < mesh.N(); n++ {
		s.banks[n] = NewCache(cfg.L2Size, cfg.L2Ways, cfg.Block)
		s.dirs[n] = make(map[uint64]uint64)
		s.cores = append(s.cores, &core{
			node:   n,
			app:    regions.AppAt(n),
			l1:     NewCache(cfg.L1Size, cfg.L1Ways, cfg.Block),
			stream: streams[n],
			mshr:   make([]uint64, 0, cfg.MSHRs),
		})
	}
	return s
}

// HomeBank returns the home L2 bank node of addr for a core of the given
// application: a deterministic hash places the block within the
// application's own region with probability 1-SharedFrac, else anywhere on
// the chip. This is the cooperative-cache / region-aware home mapping that
// turns the NoC into an RNoC.
func (s *System) HomeBank(app int, addr uint64) int {
	block := addr / uint64(s.cfg.Block)
	h := splitmix(block ^ (uint64(app+1) << 56))
	var nodes []int
	if app >= 0 && app < len(s.homes) {
		nodes = s.homes[app]
	}
	// Low bits pick the bank; a separate hash slice decides in/out of
	// region so the two choices are independent.
	if len(nodes) == 0 || float64((h>>32)&0xffff)/65536.0 < s.cfg.SharedFrac {
		return int(h % uint64(len(s.banks)))
	}
	return nodes[int(h%uint64(len(nodes)))]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nearestMC returns the memory controller closest to node (ties broken by
// corner order, matching static MC affinity).
func (s *System) nearestMC(node int) int {
	mesh := s.regions.Mesh()
	best, bestD := s.mcs[0], mesh.Distance(node, s.mcs[0])
	for _, mc := range s.mcs[1:] {
		if d := mesh.Distance(node, mc); d < bestD {
			best, bestD = mc, d
		}
	}
	return best
}

// Prewarm functionally warms the caches: each core's stream is run through
// its L1, the home L2 banks and the sharer directory for the given number
// of accesses, without producing any network traffic or consuming simulated
// time. This mirrors the full-system methodology the paper uses ("with
// sufficient warmup"): timing simulation starts from warm caches, so the
// measured window is steady-state traffic rather than the cold-fill burst
// (which would otherwise saturate the four memory controllers for the whole
// run).
func (s *System) Prewarm(accessesPerCore int) {
	for _, c := range s.cores {
		if c.stream == nil {
			continue
		}
		for i := 0; i < accessesPerCore; i++ {
			a, issued := c.stream.Next(s.rng)
			if !issued {
				continue
			}
			if c.l1.Access(a.Addr) {
				continue
			}
			home := s.HomeBank(c.app, a.Addr)
			s.banks[home].Access(a.Addr)
			if len(s.banks) <= 64 {
				block := a.Addr / uint64(s.cfg.Block)
				me := uint64(1) << uint(c.node%64)
				if a.Write {
					s.dirs[home][block] = me
				} else {
					s.dirs[home][block] |= me
				}
			}
		}
	}
}

// Tick advances cores one cycle: recycle the messages ejected last cycle,
// fire due protocol actions, then let each core issue at most one access.
func (s *System) Tick(now int64) {
	for s.retired != nil {
		m := s.retired
		s.retired, m.next, s.free = m.next, s.free, m
	}
	due := &s.wheel[now&int64(len(s.wheel)-1)]
	for m := due.head; m != nil; m = m.next {
		s.packetsInjected++
		s.inject(m.pkt.Src, &m.pkt, now)
	}
	*due = fifo{}
	for _, c := range s.cores {
		if c.stream == nil {
			continue
		}
		if len(c.mshr) >= s.cfg.MSHRs {
			s.stalledCoreCycles++
			continue
		}
		a, issued := c.stream.Next(s.rng)
		if !issued {
			continue
		}
		if c.l1.Access(a.Addr) {
			s.l1Hits++
			continue
		}
		s.l1Misses++
		block := a.Addr / uint64(s.cfg.Block)
		if slices.Contains(c.mshr, block) {
			s.mergesOnOutstand++ // MSHR merge: request already in flight
			continue
		}
		c.mshr = append(c.mshr, block)
		home := s.HomeBank(c.app, a.Addr)
		s.send(now, 0, c.app, c.node, home, payload{kind: l2Request, addr: a.Addr, core: c.node, write: a.Write})
	}
}

// send injects a protocol message from src to dst after delay cycles (0 =
// this cycle), drawing it from the free list.
func (s *System) send(now, delay int64, app, src, dst int, pl payload) {
	m := s.free
	if m != nil {
		s.free = m.next
	} else {
		m = new(message)
	}
	class, size := msg.ClassRequest, msg.ShortPacketFlits
	if pl.kind >= dataReply {
		class = msg.ClassResponse
	}
	if pl.kind == dataReply {
		size = msg.LongPacketFlits
	}
	s.nextID++
	m.pkt = msg.Packet{ID: s.nextID, App: app, Src: src, Dst: dst, Class: class, Size: size, Payload: m}
	m.pl, m.next = pl, nil
	if delay <= 0 {
		s.packetsInjected++
		s.inject(src, &m.pkt, now)
		return
	}
	slot := &s.wheel[(now+delay)&int64(len(s.wheel)-1)]
	if slot.tail == nil {
		slot.head = m
	} else {
		slot.tail.next = m
	}
	slot.tail = m
}

// HandleEject processes a delivered packet: bank lookups, MC fetches and
// core completions. Wire it into the network's OnEject (before or after the
// statistics collector; it does not mutate latency stamps). It detaches the
// payload, so a second delivery of the same packet is ignored.
func (s *System) HandleEject(p *msg.Packet, now int64) {
	m, ok := p.Payload.(*message)
	if !ok {
		return // not a memory-system packet (e.g. adversarial traffic)
	}
	p.Payload = nil
	m.next, s.retired = s.retired, m
	pl := m.pl
	switch pl.kind {
	case l2Request:
		bank := s.banks[p.Dst]
		s.updateDirectory(p, pl, now)
		if bank.Access(pl.addr) {
			s.l2Hits++
			s.send(now, s.cfg.L2Latency, p.App, p.Dst, pl.core, payload{kind: dataReply, addr: pl.addr, core: pl.core})
			return
		}
		s.l2Misses++
		s.send(now, s.cfg.L2Latency, p.App, p.Dst, s.nearestMC(p.Dst), payload{kind: mcRequest, addr: pl.addr, core: pl.core})
	case mcRequest:
		// Memory access, then data straight to the requesting core (the
		// home bank has already allocated the block).
		s.send(now, s.cfg.MemLatency, p.App, p.Dst, pl.core, payload{kind: dataReply, addr: pl.addr, core: pl.core})
	case dataReply:
		c := s.cores[pl.core]
		if i := slices.Index(c.mshr, pl.addr/uint64(s.cfg.Block)); i >= 0 {
			c.mshr = slices.Delete(c.mshr, i, i+1)
		}
		s.finishedCoreMisses++
	case invRequest:
		// A sharer core drops its L1 copy and acknowledges to the bank
		// (pl.core carries the bank node).
		if s.cores[p.Dst].l1.Invalidate(pl.addr) {
			s.l1Invalidated++
		}
		s.send(now, 0, p.App, p.Dst, pl.core, payload{kind: invAck, addr: pl.addr, core: pl.core})
	case invAck:
		s.invAcksReceived++
	}
}

// updateDirectory maintains the sharer bitmask for the requested block at
// the home bank and fires invalidations when a write touches a block other
// cores share.
func (s *System) updateDirectory(p *msg.Packet, pl payload, now int64) {
	if len(s.banks) > 64 {
		return // bitmask directory covers up to 64 cores; larger chips skip coherence traffic
	}
	dir := s.dirs[p.Dst]
	block := pl.addr / uint64(s.cfg.Block)
	sharers := dir[block]
	me := uint64(1) << uint(pl.core%64)
	if pl.write {
		others := sharers &^ me
		for node := 0; others != 0; node++ {
			bit := uint64(1) << uint(node)
			if others&bit == 0 {
				continue
			}
			others &^= bit
			s.invalidationsSent++
			// core carries the bank node so the ack returns home.
			s.send(now, s.cfg.L2Latency, p.App, p.Dst, node, payload{kind: invRequest, addr: pl.addr, core: p.Dst})
		}
		dir[block] = me
		return
	}
	dir[block] = sharers | me
}

// Stats is a snapshot of the memory system counters.
type Stats struct {
	L1Hits, L1Misses  uint64
	L2Hits, L2Misses  uint64
	PacketsInjected   uint64
	MSHRMerges        uint64
	StalledCoreCycles uint64
	CompletedMisses   uint64
	InvalidationsSent uint64
	InvAcksReceived   uint64
	L1Invalidated     uint64
}

// Snapshot returns current counters.
func (s *System) Snapshot() Stats {
	return Stats{
		L1Hits: s.l1Hits, L1Misses: s.l1Misses,
		L2Hits: s.l2Hits, L2Misses: s.l2Misses,
		PacketsInjected:   s.packetsInjected,
		MSHRMerges:        s.mergesOnOutstand,
		StalledCoreCycles: s.stalledCoreCycles,
		CompletedMisses:   s.finishedCoreMisses,
		InvalidationsSent: s.invalidationsSent,
		InvAcksReceived:   s.invAcksReceived,
		L1Invalidated:     s.l1Invalidated,
	}
}

// Outstanding reports the total in-flight misses across cores.
func (s *System) Outstanding() int {
	n := 0
	for _, c := range s.cores {
		n += len(c.mshr)
	}
	return n
}
