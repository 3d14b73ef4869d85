package memsys

import (
	"fmt"

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

const (
	l2Request  reqKind = iota // core -> home L2 bank
	mcRequest                 // L2 bank -> memory controller
	dataReply                 // bank or MC -> core
	invRequest                // L2 bank -> sharer core (coherence invalidation)
	invAck                    // sharer core -> L2 bank
)

type payload struct {
	kind  reqKind
	addr  uint64
	core  int
	write bool
}

// Injector submits a packet at a node's NI (wired to the network by the
// caller).
type Injector func(node int, p *msg.Packet, now int64)

// System is the chip's memory system: one core+L1+L2-bank per node, memory
// controllers at the corners, all communicating over the NoC. It implements
// sim.Tickable (tick it before the network each cycle) and must also
// receive every ejected packet via HandleEject.
type System struct {
	cfg     SystemConfig
	regions *region.Map
	inject  Injector
	rng     *sim.RNG

	cores []*core
	banks []*Cache
	// dirs is the per-bank sharer directory: block -> bitmask of sharer
	// cores, maintained for blocks resident in the bank. Writes to shared
	// blocks trigger L1 invalidations (a lightweight MSI-style protocol:
	// the substrate's "multiple message classes" of Section IV.D).
	dirs []map[uint64]uint64
	mcs  []int // MC node ids

	// Delayed protocol actions (bank latency, memory latency), bucketed
	// by due cycle.
	delayed map[int64][]pending

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

type pending struct {
	node int
	pkt  *msg.Packet
}

type core struct {
	node        int
	app         int
	l1          *Cache
	stream      AddressStream
	outstanding map[uint64]bool // block-aligned addresses in flight
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
		mcs:     corners[:],
		delayed: make(map[int64][]pending),
	}
	s.dirs = make([]map[uint64]uint64, mesh.N())
	for n := 0; n < mesh.N(); n++ {
		s.banks[n] = NewCache(cfg.L2Size, cfg.L2Ways, cfg.Block)
		s.dirs[n] = make(map[uint64]uint64)
		s.cores = append(s.cores, &core{
			node:        n,
			app:         regions.AppAt(n),
			l1:          NewCache(cfg.L1Size, cfg.L1Ways, cfg.Block),
			stream:      streams[n],
			outstanding: make(map[uint64]bool),
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
	mesh := s.regions.Mesh()
	nodes := s.regions.Nodes(app)
	if app == region.Unassigned || len(nodes) == 0 {
		return int(h % uint64(mesh.N()))
	}
	// Low bits pick the bank; a separate hash slice decides in/out of
	// region so the two choices are independent.
	outOf := float64((h>>32)&0xffff)/65536.0 < s.cfg.SharedFrac
	if outOf {
		return int(h % uint64(mesh.N()))
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
			if s.regions.Mesh().N() <= 64 {
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

// Tick advances cores one cycle: fire due protocol actions, then let each
// core issue at most one access.
func (s *System) Tick(now int64) {
	if due, ok := s.delayed[now]; ok {
		delete(s.delayed, now)
		for _, p := range due {
			s.packetsInjected++
			s.inject(p.node, p.pkt, now)
		}
	}
	for _, c := range s.cores {
		if c.stream == nil {
			continue
		}
		if len(c.outstanding) >= s.cfg.MSHRs {
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
		if c.outstanding[block] {
			s.mergesOnOutstand++ // MSHR merge: request already in flight
			continue
		}
		c.outstanding[block] = true
		home := s.HomeBank(c.app, a.Addr)
		s.send(c.node, now, 0, &msg.Packet{
			App: c.app, Src: c.node, Dst: home,
			Class: msg.ClassRequest, Size: msg.ShortPacketFlits,
			Payload: payload{kind: l2Request, addr: a.Addr, core: c.node, write: a.Write},
		})
	}
}

// send injects a packet after delay cycles (0 = this cycle).
func (s *System) send(node int, now, delay int64, p *msg.Packet) {
	s.nextID++
	p.ID = s.nextID
	if delay <= 0 {
		s.packetsInjected++
		s.inject(node, p, now)
		return
	}
	s.delayed[now+delay] = append(s.delayed[now+delay], pending{node: node, pkt: p})
}

// HandleEject processes a delivered packet: bank lookups, MC fetches and
// core completions. Wire it into the network's OnEject (before or after the
// statistics collector; it does not mutate latency stamps).
func (s *System) HandleEject(p *msg.Packet, now int64) {
	pl, ok := p.Payload.(payload)
	if !ok {
		return // not a memory-system packet (e.g. adversarial traffic)
	}
	switch pl.kind {
	case l2Request:
		bank := s.banks[p.Dst]
		s.updateDirectory(p, pl, now)
		if bank.Access(pl.addr) {
			s.l2Hits++
			s.send(p.Dst, now, s.cfg.L2Latency, &msg.Packet{
				App: p.App, Src: p.Dst, Dst: pl.core,
				Class: msg.ClassResponse, Size: msg.LongPacketFlits,
				Payload: payload{kind: dataReply, addr: pl.addr, core: pl.core},
			})
			return
		}
		s.l2Misses++
		mc := s.nearestMC(p.Dst)
		s.send(p.Dst, now, s.cfg.L2Latency, &msg.Packet{
			App: p.App, Src: p.Dst, Dst: mc,
			Class: msg.ClassRequest, Size: msg.ShortPacketFlits,
			Payload: payload{kind: mcRequest, addr: pl.addr, core: pl.core},
		})
	case mcRequest:
		// Memory access, then data straight to the requesting core (the
		// home bank has already allocated the block).
		s.send(p.Dst, now, s.cfg.MemLatency, &msg.Packet{
			App: p.App, Src: p.Dst, Dst: pl.core,
			Class: msg.ClassResponse, Size: msg.LongPacketFlits,
			Payload: payload{kind: dataReply, addr: pl.addr, core: pl.core},
		})
	case dataReply:
		c := s.cores[pl.core]
		delete(c.outstanding, pl.addr/uint64(s.cfg.Block))
		s.finishedCoreMisses++
	case invRequest:
		// A sharer core drops its L1 copy and acknowledges to the bank.
		if s.cores[p.Dst].l1.Invalidate(pl.addr) {
			s.l1Invalidated++
		}
		s.send(p.Dst, now, 0, &msg.Packet{
			App: p.App, Src: p.Dst, Dst: pl.core, // pl.core carries the bank node
			Class: msg.ClassResponse, Size: msg.ShortPacketFlits,
			Payload: payload{kind: invAck, addr: pl.addr, core: pl.core},
		})
	case invAck:
		s.invAcksReceived++
	}
}

// updateDirectory maintains the sharer bitmask for the requested block at
// the home bank and fires invalidations when a write touches a block other
// cores share.
func (s *System) updateDirectory(p *msg.Packet, pl payload, now int64) {
	if s.regions.Mesh().N() > 64 {
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
			s.send(p.Dst, now, s.cfg.L2Latency, &msg.Packet{
				App: p.App, Src: p.Dst, Dst: node,
				Class: msg.ClassRequest, Size: msg.ShortPacketFlits,
				// core carries the bank node so the ack returns home.
				Payload: payload{kind: invRequest, addr: pl.addr, core: p.Dst},
			})
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
		n += len(c.outstanding)
	}
	return n
}
