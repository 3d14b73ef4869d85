package memsys

import (
	"fmt"
	"math"
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
	// blockShift is log2(Block); shared is homeThreshold(SharedFrac).
	blockShift uint
	shared     uint64
	// dirs is the per-bank sharer directory: block -> bitmask of sharer
	// cores. Writes to shared blocks trigger L1 invalidations (a
	// lightweight MSI-style protocol: the substrate's "multiple message
	// classes" of Section IV.D). Entries outlive the bank's copy of the
	// block, so they cannot live in the cache ways.
	dirs []dirTable
	mcs  []int // MC node ids

	// wheel holds delayed protocol actions (bank latency, memory latency)
	// by due cycle modulo its length, a power of two above both latencies.
	wheel []fifo
	// free and retired are stacks: messages ready for reuse, and those
	// ejected since the last Tick.
	free, retired *message

	nextID uint64
	stats  Stats
}

type core struct { // the core at node i is cores[i]
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
		cfg:        cfg,
		regions:    regions,
		inject:     inject,
		rng:        sim.NewRNG(seed),
		banks:      make([]*Cache, mesh.N()),
		homes:      make([][]int, regions.NumApps()),
		blockShift: uint(bits.TrailingZeros64(uint64(cfg.Block))),
		shared:     homeThreshold(cfg.SharedFrac),
		dirs:       make([]dirTable, mesh.N()),
		mcs:        corners[:],
		wheel:      make([]fifo, 1<<bits.Len64(uint64(max(cfg.L2Latency, cfg.MemLatency, 0)))),
	}
	for app := range s.homes {
		s.homes[app] = regions.Nodes(app)
	}
	for n := 0; n < mesh.N(); n++ {
		s.banks[n] = NewCache(cfg.L2Size, cfg.L2Ways, cfg.Block)
		s.cores = append(s.cores, &core{
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
	h := splitmix(addr>>s.blockShift ^ (uint64(app+1) << 56))
	var nodes []int
	if app >= 0 && app < len(s.homes) {
		nodes = s.homes[app]
	}
	// Low bits pick the bank; a separate hash slice decides in/out of
	// region so the two choices are independent.
	if len(nodes) == 0 || (h>>32)&0xffff < s.shared {
		return pick(h, len(s.banks))
	}
	return nodes[pick(h, len(nodes))]
}

// homeThreshold is the integer form of HomeBank's out-of-region test: for
// every 16-bit slice x, x < homeThreshold(f) exactly when
// float64(x)/65536 < f, since x/65536 is exact.
func homeThreshold(f float64) uint64 {
	if !(f > 0) { // NaN included
		return 0
	}
	return uint64(math.Ceil(min(f, 1) * (1 << 16)))
}

// pick is h mod n, by a mask when n is a power of two.
func pick(h uint64, n int) int {
	if n&(n-1) == 0 {
		return int(h & uint64(n-1))
	}
	return int(h % uint64(n))
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
	for n, c := range s.cores {
		for i := 0; c.stream != nil && i < accessesPerCore; i++ {
			if a, issued := c.stream.Next(s.rng); issued && !c.l1.Access(a.Addr) {
				home := s.HomeBank(c.app, a.Addr)
				s.banks[home].Access(a.Addr)
				s.share(home, n, a.Addr, a.Write)
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
		s.stats.PacketsInjected++
		s.inject(m.pkt.Src, &m.pkt, now)
	}
	*due = fifo{}
	for n, c := range s.cores {
		if c.stream == nil {
			continue
		}
		if len(c.mshr) >= s.cfg.MSHRs {
			s.stats.StalledCoreCycles++
			continue
		}
		a, issued := c.stream.Next(s.rng)
		if !issued {
			continue
		}
		if c.l1.Access(a.Addr) {
			s.stats.L1Hits++
			continue
		}
		s.stats.L1Misses++
		block := a.Addr >> s.blockShift
		if slices.Contains(c.mshr, block) {
			s.stats.MSHRMerges++ // MSHR merge: request already in flight
			continue
		}
		c.mshr = append(c.mshr, block)
		home := s.HomeBank(c.app, a.Addr)
		s.send(now, 0, c.app, n, home, payload{kind: l2Request, addr: a.Addr, core: n, write: a.Write})
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
		s.stats.PacketsInjected++
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
		// The requester becomes a sharer; a write invalidates the others.
		for others := s.share(p.Dst, pl.core, pl.addr, pl.write); others != 0; others &= others - 1 {
			s.stats.InvalidationsSent++
			// core carries the bank node so the ack returns home.
			s.send(now, s.cfg.L2Latency, p.App, p.Dst, bits.TrailingZeros64(others), payload{kind: invRequest, addr: pl.addr, core: p.Dst})
		}
		if s.banks[p.Dst].Access(pl.addr) {
			s.stats.L2Hits++
			s.send(now, s.cfg.L2Latency, p.App, p.Dst, pl.core, payload{kind: dataReply, addr: pl.addr, core: pl.core})
			return
		}
		s.stats.L2Misses++
		s.send(now, s.cfg.L2Latency, p.App, p.Dst, s.nearestMC(p.Dst), payload{kind: mcRequest, addr: pl.addr, core: pl.core})
	case mcRequest:
		// Memory access, then data straight to the requesting core (the
		// home bank has already allocated the block).
		s.send(now, s.cfg.MemLatency, p.App, p.Dst, pl.core, payload{kind: dataReply, addr: pl.addr, core: pl.core})
	case dataReply:
		c := s.cores[pl.core]
		if i := slices.Index(c.mshr, pl.addr>>s.blockShift); i >= 0 {
			c.mshr = slices.Delete(c.mshr, i, i+1)
		}
		s.stats.CompletedMisses++
	case invRequest:
		// A sharer core drops its L1 copy and acknowledges to the bank
		// (pl.core carries the bank node).
		if s.cores[p.Dst].l1.Invalidate(pl.addr) {
			s.stats.L1Invalidated++
		}
		s.send(now, 0, p.App, p.Dst, pl.core, payload{kind: invAck, addr: pl.addr, core: pl.core})
	case invAck:
		s.stats.InvAcksReceived++
	}
}

// share adds core to addr's sharers at bank home; a write leaves it the sole
// sharer and returns the sharers it displaced. The bitmask directory covers
// up to 64 cores; larger chips skip coherence traffic.
func (s *System) share(home, core int, addr uint64, write bool) (others uint64) {
	if len(s.banks) > 64 {
		return 0
	}
	p, me := s.dirs[home].sharers(addr>>s.blockShift), uint64(1)<<uint(core%64)
	if write {
		others, *p = *p&^me, me
	} else {
		*p |= me
	}
	return others
}

// dirTable is one bank's sharer directory, block -> sharer mask, as an
// open-addressed table. An entry holds block+1 (0 marks a free slot) beside
// its mask, so a lookup reads one cache line; probing is linear from a
// Fibonacci hash. It starts at dirSlots slots (no bank of the PARSEC
// warm-up ends smaller) and doubles at 7/8 load. The zero value is empty.
type dirTable struct {
	e []dirEntry
	n int // entries in use
}

type dirEntry struct{ key, mask uint64 }

const dirSlots = 1024

// sharers returns block's mask word, adding the block with no sharers if it
// is absent. The pointer is valid until the next call.
func (d *dirTable) sharers(block uint64) *uint64 {
	if (d.n+1)*8 > len(d.e)*7 {
		old := d.e
		d.e, d.n = make([]dirEntry, max(dirSlots, 2*len(old))), 0
		for _, x := range old {
			if x.key != 0 {
				*d.sharers(x.key - 1) = x.mask
			}
		}
	}
	key, m := block+1, uint64(len(d.e)-1)
	i := key * 0x9e3779b97f4a7c15 >> bits.LeadingZeros64(m)
	for d.e[i].key != key {
		if d.e[i].key == 0 {
			d.e[i].key = key
			d.n++
			break
		}
		i = (i + 1) & m
	}
	return &d.e[i].mask
}

// Stats is a snapshot of the memory system counters.
type Stats struct {
	L1Hits, L1Misses, L2Hits, L2Misses                              uint64
	PacketsInjected, MSHRMerges, StalledCoreCycles, CompletedMisses uint64
	InvalidationsSent, InvAcksReceived, L1Invalidated               uint64
}

// Snapshot returns current counters.
func (s *System) Snapshot() Stats { return s.stats }

// Outstanding reports the total in-flight misses across cores.
func (s *System) Outstanding() int {
	n := 0
	for _, c := range s.cores {
		n += len(c.mshr)
	}
	return n
}
