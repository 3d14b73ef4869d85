// Package collective generates phase-structured collective-communication
// workloads — ring AllReduce, binary-tree broadcast and full all-to-all
// shuffle — as first-class traffic sources for the regionalized network.
//
// Unlike the Bernoulli generators of internal/traffic, a collective is a
// closed-loop state machine: every message of step s depends on a message of
// step s-1 having been *delivered*, so the injection process reacts to the
// network's own latency. The source still produces a deterministic,
// seed-reproducible stream because all of its state changes on the
// coordinating goroutine: sends happen in Source.Tick (registered before the
// network, like traffic.Generator), and deliveries arrive through
// Source.Deliver, driven by network.Params.OnEject, which the network
// guarantees to run on the ticking goroutine in ascending node order
// regardless of the worker count. Results are therefore bit-identical across
// tick-engine shard counts.
//
// Phase model: a collective executes rounds; a round is a fixed schedule of
// per-rank packet sends partitioned into named phases (reduce-scatter and
// all-gather for the ring; a single phase for broadcast and shuffle). Each
// rank's sends are gated by a per-packet dependency threshold on its own
// delivery count — the count-based formulation of "send chunk k of step s
// only after receiving chunk k of step s-1", which is robust to in-network
// reordering of same-pair packets under adaptive routing.
package collective

import (
	"fmt"
	"sort"

	"rair/internal/msg"
	"rair/internal/sim"
	"rair/internal/topology"
	"rair/internal/traffic"
)

// Op selects the collective operation.
type Op int

const (
	// RingAllReduce is the bandwidth-optimal ring: N-1 reduce-scatter steps
	// followed by N-1 all-gather steps, each rank sending to its ring
	// successor, with a per-step dependency barrier on the predecessor's
	// previous-step chunk.
	RingAllReduce Op = iota
	// TreeBroadcast propagates the root's chunks down a binary tree laid
	// over the rank order: a rank forwards chunk k to its children only
	// after receiving chunk k from its parent. N-1 messages per chunk.
	TreeBroadcast
	// AllToAll is the full shuffle: N-1 steps, rank i sending to rank
	// (i+s) mod N in step s, self-paced by its own inbound deliveries.
	AllToAll
)

var opNames = [...]string{"allreduce", "bcast", "a2a"}

func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("Op(%d)", int(o))
	}
	return opNames[o]
}

// Spec describes one collective workload placed on a set of mesh nodes.
type Spec struct {
	// Op is the collective operation.
	Op Op
	// App is the application number carried by the collective's packets
	// (normally the region the participant nodes belong to).
	App int
	// Nodes are the participant nodes. Rank order is the boustrophedon
	// (snake) order of their mesh coordinates — ring neighbors are mesh
	// neighbors wherever the node set is a contiguous rectangle.
	Nodes []int
	// Mesh supplies coordinates for the rank ordering.
	Mesh *topology.Mesh
	// ChunkPackets is how many packets make up one chunk-step message
	// (default 1). Larger chunks raise the collective's offered load.
	ChunkPackets int
	// Gap is the idle gap in cycles between a round's completion and the
	// next round's start.
	Gap int64
	// Jitter is the maximum per-rank start offset, drawn per round from
	// the source's seeded RNG; 0 disables. Jitter is what makes distinct
	// seeds produce distinct (but individually reproducible) streams.
	Jitter int
	// Class is the message class of the collective's packets (long data
	// packets ride ClassResponse on two-class networks).
	Class msg.Class
}

// Ranks returns nodes in boustrophedon (snake) order of their coordinates
// on mesh: rows in ascending Y, alternating X direction per row, so that
// consecutive ranks are mesh neighbors on contiguous rectangular regions.
func Ranks(mesh *topology.Mesh, nodes []int) []int {
	out := append([]int(nil), nodes...)
	sort.Slice(out, func(i, j int) bool {
		a, b := mesh.Coord(out[i]), mesh.Coord(out[j])
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		if a.Y%2 == 1 {
			return a.X > b.X
		}
		return a.X < b.X
	})
	return out
}

// RingSteps is the number of dependency steps in a ring AllReduce over n
// ranks: n-1 reduce-scatter plus n-1 all-gather.
func RingSteps(n int) int { return 2 * (n - 1) }

// RingDst is the ring successor every AllReduce step sends to.
func RingDst(n, rank int) int { return (rank + 1) % n }

// AllToAllDst is the shuffle destination of rank in step s (1 <= s < n):
// the rotation (rank+s) mod n, a self-send-free permutation per step.
func AllToAllDst(n, rank, step int) int { return (rank + step) % n }

// TreeChildren are the binary-heap children of rank that exist among n
// ranks, in deterministic order.
func TreeChildren(n, rank int) []int {
	var out []int
	for _, c := range []int{2*rank + 1, 2*rank + 2} {
		if c < n {
			out = append(out, c)
		}
	}
	return out
}

// PhaseProgress is the progress of one phase.
type PhaseProgress struct {
	// Name labels the phase ("reduce-scatter", "all-gather", ...).
	Name string
	// Sent and Delivered count the phase's packets.
	Sent, Delivered int64
}

// Progress is a snapshot of a source's counters.
type Progress struct {
	// RoundsStarted counts rounds begun; Rounds counts rounds whose every
	// packet was delivered. TotalCycles sums completed rounds' durations.
	RoundsStarted, Rounds int64
	TotalCycles           int64
	// Phases holds the per-phase progress counters in phase order.
	Phases []PhaseProgress
}

// CompletionTime is the mean cycles per completed round (0 when none
// completed) — the collective completion time (CCT) the experiments report.
func (p *Progress) CompletionTime() float64 {
	if p.Rounds == 0 {
		return 0
	}
	return float64(p.TotalCycles) / float64(p.Rounds)
}

// Source drives one collective workload. It implements sim.Tickable;
// register it before the network, wire Deliver into the network's OnEject
// for packets carrying the collective's App, and set Until/Pool like a
// traffic.Generator.
type Source struct {
	spec   Spec
	inject traffic.InjectorFunc
	rng    *sim.RNG

	// Until stops round starts and sends at this cycle when > 0 (the
	// network then drains; an incomplete round is not counted).
	Until int64
	// Pool, when non-nil, supplies packet structs instead of the heap.
	Pool *msg.Pool

	n      int
	ranks  []int       // rank -> node id
	rankOf map[int]int // node id -> rank

	// Per-rank round-invariant schedule: sched[r][j] is the destination
	// rank of rank r's j-th packet, need[r][j] the delivery count rank r
	// must have reached before sending it, phase[r][j] its phase index.
	sched [][]int
	need  [][]int
	phase [][]uint8
	// recvPhaseEdge is the per-rank delivery count at which inbound
	// packets switch from phase 0 to phase 1 (ring only; otherwise the
	// round's full expectation, i.e. never crossed).
	recvPhaseEdge []int
	expectedRound int // total deliveries per round across ranks

	active     bool
	roundStart int64
	nextRound  int64
	startAt    []int64 // per-rank first-send cycle this round (jitter)
	sentPkts   []int   // per-rank packets sent this round
	recvPkts   []int   // per-rank packets received this round
	delivered  int     // total deliveries this round
	nextID     uint64

	prog Progress
}

// idBase offsets collective packet IDs away from the Bernoulli generators'
// ID space so traces and samplers can tell the streams apart.
const idBase = uint64(1) << 32

// NewSource builds a source over spec. It panics on an unusable spec
// (fewer than two participants, missing mesh, duplicate nodes), matching
// the configuration-error convention of the traffic package.
func NewSource(spec Spec, seed uint64, inject traffic.InjectorFunc) *Source {
	if spec.Mesh == nil {
		panic("collective: spec needs a mesh")
	}
	if len(spec.Nodes) < 2 {
		panic("collective: need at least two participant nodes")
	}
	if spec.ChunkPackets <= 0 {
		spec.ChunkPackets = 1
	}
	s := &Source{
		spec:   spec,
		inject: inject,
		rng:    sim.NewRNG(seed ^ 0xc0113c71fe), // distinct stream from the co-running generators
		n:      len(spec.Nodes),
		ranks:  Ranks(spec.Mesh, spec.Nodes),
		rankOf: make(map[int]int, len(spec.Nodes)),
	}
	for r, node := range s.ranks {
		if _, dup := s.rankOf[node]; dup {
			panic(fmt.Sprintf("collective: duplicate participant node %d", node))
		}
		s.rankOf[node] = r
	}
	s.buildSchedule()
	for _, name := range phaseNames(spec.Op) {
		s.prog.Phases = append(s.prog.Phases, PhaseProgress{Name: name})
	}
	s.startAt = make([]int64, s.n)
	s.sentPkts = make([]int, s.n)
	s.recvPkts = make([]int, s.n)
	return s
}

func phaseNames(op Op) []string {
	switch op {
	case RingAllReduce:
		return []string{"reduce-scatter", "all-gather"}
	case TreeBroadcast:
		return []string{"broadcast"}
	case AllToAll:
		return []string{"shuffle"}
	}
	panic("collective: unknown op")
}

// buildSchedule precomputes every rank's packet destinations, dependency
// thresholds and phases for one round. The schedule is identical across
// rounds; only the jitter offsets vary.
func (s *Source) buildSchedule() {
	n, c := s.n, s.spec.ChunkPackets
	s.sched = make([][]int, n)
	s.need = make([][]int, n)
	s.phase = make([][]uint8, n)
	s.recvPhaseEdge = make([]int, n)
	for r := 0; r < n; r++ {
		switch s.spec.Op {
		case RingAllReduce:
			l := RingSteps(n) * c
			dsts := make([]int, l)
			needs := make([]int, l)
			phases := make([]uint8, l)
			for j := 0; j < l; j++ {
				dsts[j] = RingDst(n, r)
				// Chunk k of step s may go once chunk k of step s-1 is
				// in: delivery count j-c+1 (<=0 for the free step 0).
				needs[j] = j - c + 1
				if j >= (n-1)*c {
					phases[j] = 1
				}
			}
			s.sched[r], s.need[r], s.phase[r] = dsts, needs, phases
			s.recvPhaseEdge[r] = (n - 1) * c
		case TreeBroadcast:
			children := TreeChildren(n, r)
			l := len(children) * c
			dsts := make([]int, l)
			needs := make([]int, l)
			for j := 0; j < l; j++ {
				// Interleave children so both subtrees start streaming
				// with the first chunk.
				dsts[j] = children[j%len(children)]
				if r == 0 {
					needs[j] = 0 // the root owns the data
				} else {
					needs[j] = j/len(children) + 1 // forward chunk k after receiving it
				}
			}
			s.sched[r], s.need[r], s.phase[r] = dsts, needs, make([]uint8, l)
			s.recvPhaseEdge[r] = l + n*c // single phase: never crossed
		case AllToAll:
			l := (n - 1) * c
			dsts := make([]int, l)
			needs := make([]int, l)
			for j := 0; j < l; j++ {
				dsts[j] = AllToAllDst(n, r, j/c+1)
				needs[j] = j - c + 1 // step s waits on own step s-1 arrivals
			}
			s.sched[r], s.need[r], s.phase[r] = dsts, needs, make([]uint8, l)
			s.recvPhaseEdge[r] = l + 1
		default:
			panic("collective: unknown op")
		}
	}
	s.expectedRound = 0
	for r := 0; r < n; r++ {
		s.expectedRound += len(s.sched[r])
	}
}

// Progress returns a snapshot of the source's counters.
func (s *Source) Progress() Progress {
	p := s.prog
	p.Phases = append([]PhaseProgress(nil), s.prog.Phases...)
	return p
}

// Tick implements sim.Tickable: starts rounds (one after another until
// Until) and sends, in ascending rank order, each rank's next packet once
// its dependency threshold is met — at most one packet per rank per cycle.
func (s *Source) Tick(now int64) {
	if s.Until > 0 && now >= s.Until {
		return
	}
	if !s.active && now >= s.nextRound {
		s.startRound(now)
	}
	if !s.active {
		return
	}
	for r := 0; r < s.n; r++ {
		if now < s.startAt[r] {
			continue
		}
		if j := s.sentPkts[r]; j < len(s.sched[r]) && s.recvPkts[r] >= s.need[r][j] {
			s.send(r, j, now)
		}
	}
}

func (s *Source) startRound(now int64) {
	s.active = true
	s.roundStart = now
	s.delivered = 0
	s.prog.RoundsStarted++
	for r := 0; r < s.n; r++ {
		s.sentPkts[r] = 0
		s.recvPkts[r] = 0
		s.startAt[r] = now
		if s.spec.Jitter > 0 {
			s.startAt[r] = now + int64(s.rng.Intn(s.spec.Jitter+1))
		}
	}
}

func (s *Source) send(r, j int, now int64) {
	src := s.ranks[r]
	dst := s.ranks[s.sched[r][j]]
	s.nextID++
	p := s.Pool.Get()
	p.ID, p.App, p.Src, p.Dst = idBase+s.nextID, s.spec.App, src, dst
	p.Class, p.Size = s.spec.Class, msg.LongPacketFlits
	s.sentPkts[r]++
	s.prog.Phases[s.phase[r][j]].Sent++
	s.inject(src, p, now)
}

// Deliver folds one delivered collective packet into the dependency state
// and progress counters. Wire it into network.Params.OnEject for packets
// carrying the collective's App; the network runs OnEject on the ticking
// goroutine in node order, so no locking is needed and results are
// bit-identical across worker counts. Read-only on the packet, and called
// before the network recycles it.
func (s *Source) Deliver(p *msg.Packet, now int64) {
	r, ok := s.rankOf[p.Dst]
	if !ok || !s.active {
		return
	}
	pi := 0
	if s.recvPkts[r] >= s.recvPhaseEdge[r] {
		pi = 1
	}
	s.prog.Phases[pi].Delivered++
	s.recvPkts[r]++
	s.delivered++
	if s.delivered == s.expectedRound {
		s.active = false
		s.prog.Rounds++
		s.prog.TotalCycles += now - s.roundStart
		s.nextRound = now + 1 + s.spec.Gap
	}
}
