// The sharded parallel tick engine. The mesh is partitioned into contiguous
// node-range shards; each shard beyond the first gets a persistent worker
// goroutine, and every cycle advances in barrier-separated phases that mirror
// the register-latched two-phase semantics the serial network always had:
//
//	phase 1 (links):   shard-local link shift and flit/credit delivery
//	phase 2 (compute): router and NI pipelines tick
//	phase 3 (cong):    DBAR congestion fill, then a separate swap phase
//
// Sharding is bit-exact because all cross-component communication flows
// through latched links, and each delay line is touched by exactly one shard
// per phase: a link's flit wire belongs to the shard of its receiver (which
// shifts and delivers it in phase 1 and is the only pusher of its credit wire
// in phase 2), and its credit wire belongs to the shard of its sender
// (symmetrically). The congestion fill reads neighbor state that phase 2 no
// longer mutates and writes only shard-own next-tables; the swap is again
// shard-own. Within a phase, shards share no mutable state.
package network

import (
	"math/bits"
	"sync"
	"time"

	"rair/internal/faults"
	"rair/internal/msg"
	"rair/internal/router"
	"rair/internal/topology"
)

type enginePhase uint8

const (
	phaseLinks enginePhase = iota
	phaseCompute
	phaseCongFill
	phaseCongSwap
)

// The typed bindings replace the seed's closure dispatch: one small struct
// per (link wire, receiver) pair, devirtualized into four flat slices per
// shard so phase 1 is a tight loop of direct struct calls.
type routerFlitBinding struct {
	link *router.Link
	r    *router.Router
	dir  topology.Dir // input port at r
	// foreign marks a wire whose pusher lives on a different shard than
	// this (owning) shard. Foreign wires carry no dirty-bitmap wake mark
	// (the pusher must never write another shard's bitmap) and are polled
	// every cycle from the shard's foreign list instead. Only mesh-boundary
	// wires between shards are foreign — O(mesh width) of them per shard.
	foreign bool
}

type niFlitBinding struct {
	link *router.Link
	ni   *router.NI
}

type routerCreditBinding struct {
	link    *router.Link
	r       *router.Router
	dir     topology.Dir // output port at r
	foreign bool
}

type niCreditBinding struct {
	link *router.Link
	ni   *router.NI
}

// ejection buffers one delivered packet so OnEject callbacks run on the
// coordinating goroutine in deterministic node order, never concurrently.
type ejection struct {
	pkt *msg.Packet
	now int64
}

// shard owns a contiguous node range: its routers and NIs, plus every link
// wire whose receiver lives in the range.
type shard struct {
	idx     int // position in engine.shards (self-profiling index)
	routers []*router.Router
	nis     []*router.NI

	rFlit []routerFlitBinding
	nFlit []niFlitBinding
	rCred []routerCreditBinding
	nCred []niCreditBinding

	// soa is the shard's dense state store (see router.SoA); lo the first
	// node id of the shard's contiguous range.
	soa *router.SoA
	lo  int

	// Dirty-wire bitmaps, allocated by finalize once all bindings exist.
	// flitDirty indexes [rFlit | nFlit] (nFlit at offset len(rFlit)),
	// credDirty indexes [rCred | nCred]. A push onto a shard-local wire
	// sets its bit through the link's wake mark; the phase-1 sweep clears
	// a bit once the wire is idle after processing. Cross-shard wires are
	// kept on the foreign lists and polled unconditionally.
	flitDirty []uint64
	credDirty []uint64

	foreignFlit []int32 // rFlit indices fed by another shard
	foreignCred []int32 // rCred indices fed by another shard

	// ejections buffers OnEject calls made during phase 1 (only allocated
	// when the network has an OnEject observer).
	ejections []ejection
}

// engine drives the shards. It deliberately holds no reference back to the
// Network so that worker goroutines (which capture the engine) never keep an
// abandoned Network alive; the Network's finalizer can then stop them.
type engine struct {
	part    partition
	routers []*router.Router
	shards  []*shard
	now     int64

	// neigh answers adjacency for the congestion relay. Defaults to the
	// mesh's Neighbor; chiplet systems override it to clip tile edges so
	// DBAR congestion never propagates across links that were never wired.
	neigh func(id int, d topology.Dir) int

	// faults, when non-nil, stalls routers in the compute phase. Stall
	// decisions are pure hashes of (node, cycle), and the per-node stall
	// state is only touched by the node's owning shard, so fault injection
	// preserves the engine's bit-exactness across worker counts.
	faults *faults.Injector

	// prof, when non-nil, records the engine's self-profile (per-shard
	// phase timings, barrier waits, sweep sizes); see profile.go.
	prof *engineProf

	// cmd[i] feeds shard i+1's worker; shard 0 runs on the coordinator.
	cmd  []chan enginePhase
	done chan struct{}
	stop sync.Once
}

// partition is the split of n nodes into s contiguous shards, shard i owning
// nodes [i*n/s, (i+1)*n/s). network.New computes it once and hands it to the
// engine, so the stores, the routers' slots in them and the shards cannot
// disagree about a boundary.
type partition struct{ n, s int }

// newPartition splits n nodes into max(1, workers) shards, capped at the
// node count.
func newPartition(n, workers int) partition {
	s := workers
	if s < 1 {
		s = 1
	}
	if s > n {
		s = n
	}
	return partition{n: n, s: s}
}

// bounds returns shard i's node range [lo, hi).
func (p partition) bounds(i int) (lo, hi int) { return i * p.n / p.s, (i + 1) * p.n / p.s }

// of returns the index of the shard owning node id.
func (p partition) of(id int) int {
	i := id * p.s / p.n
	// Integer partition boundaries don't invert exactly; walk the (at most
	// one-off) error out.
	for i > 0 && id < i*p.n/p.s {
		i--
	}
	for i < p.s-1 && id >= (i+1)*p.n/p.s {
		i++
	}
	return i
}

// newEngine builds one shard per range of part over the given stores and
// starts one persistent worker per shard beyond the first.
func newEngine(mesh *topology.Mesh, routers []*router.Router, nis []*router.NI, part partition, soas []*router.SoA) *engine {
	e := &engine{part: part, routers: routers, shards: make([]*shard, part.s), neigh: mesh.Neighbor}
	for i := range e.shards {
		lo, hi := part.bounds(i)
		e.shards[i] = &shard{idx: i, routers: routers[lo:hi], nis: nis[lo:hi], soa: soas[i], lo: lo}
	}
	if s := part.s; s > 1 {
		e.cmd = make([]chan enginePhase, s-1)
		e.done = make(chan struct{}, s-1)
		for i := range e.cmd {
			e.cmd[i] = make(chan enginePhase)
			go e.worker(e.cmd[i], e.shards[i+1])
		}
	}
	return e
}

// finalize sizes the dirty-wire bitmaps now that every binding exists,
// attaches each shard-local wire's wake mark, and collects cross-shard
// wires into the always-polled foreign lists.
func (e *engine) finalize() {
	for _, sh := range e.shards {
		sh.flitDirty = make([]uint64, (len(sh.rFlit)+len(sh.nFlit)+63)/64)
		sh.credDirty = make([]uint64, (len(sh.rCred)+len(sh.nCred)+63)/64)
		for i := range sh.rFlit {
			if sh.rFlit[i].foreign {
				sh.foreignFlit = append(sh.foreignFlit, int32(i))
				continue
			}
			sh.rFlit[i].link.SetFlitWake(&sh.flitDirty[i>>6], 1<<(uint(i)&63))
		}
		for j := range sh.nFlit {
			i := len(sh.rFlit) + j
			sh.nFlit[j].link.SetFlitWake(&sh.flitDirty[i>>6], 1<<(uint(i)&63))
		}
		for i := range sh.rCred {
			if sh.rCred[i].foreign {
				sh.foreignCred = append(sh.foreignCred, int32(i))
				continue
			}
			sh.rCred[i].link.SetCreditWake(&sh.credDirty[i>>6], 1<<(uint(i)&63))
		}
		for j := range sh.nCred {
			i := len(sh.rCred) + j
			sh.nCred[j].link.SetCreditWake(&sh.credDirty[i>>6], 1<<(uint(i)&63))
		}
	}
}

// shardOf returns the shard owning node id.
func (e *engine) shardOf(id int) *shard { return e.shards[e.part.of(id)] }

func (e *engine) worker(cmd chan enginePhase, sh *shard) {
	for ph := range cmd {
		e.exec(sh, ph)
		e.done <- struct{}{}
	}
}

// run executes one phase across all shards and waits for the barrier. The
// coordinator handles shard 0 itself while the workers run theirs. With
// profiling on, the time the coordinator spends draining worker completions
// after finishing its own shard — the imbalance cost of the partition — is
// recorded as the phase's barrier wait.
func (e *engine) run(ph enginePhase) {
	for _, c := range e.cmd {
		c <- ph
	}
	e.exec(e.shards[0], ph)
	if e.prof != nil && len(e.cmd) > 0 {
		start := time.Now()
		for range e.cmd {
			<-e.done
		}
		e.prof.recordBarrier(ph, time.Since(start))
		return
	}
	for range e.cmd {
		<-e.done
	}
}

// close stops the worker goroutines. Idempotent; the Network calls it from
// Close and from its finalizer.
func (e *engine) close() {
	e.stop.Do(func() {
		for _, c := range e.cmd {
			close(c)
		}
	})
}

// exec runs one phase on one shard, wrapping execPhase with wall-time
// accounting when profiling is on. The timed path is taken by the shard's
// own goroutine (worker or coordinator), so the counter write stays within
// the ownership discipline.
func (e *engine) exec(sh *shard, ph enginePhase) {
	if e.prof == nil {
		e.execPhase(sh, ph)
		return
	}
	start := time.Now()
	e.execPhase(sh, ph)
	e.prof.shards[sh.idx].phaseNS[ph] += time.Since(start).Nanoseconds()
}

func (e *engine) execPhase(sh *shard, ph enginePhase) {
	switch ph {
	case phaseLinks:
		// Dirty-wire sweep: only wires with something in flight have their
		// bit set (pushes set it through the link's wake mark), so quiescent
		// wires cost nothing — not even the FlitsBusy probe. A bit is
		// cleared once its wire is idle after processing; retransmission
		// state keeps a wire busy and therefore dirty. Bits are walked in
		// ascending index order, which preserves the pre-bitmap processing
		// order (in particular nFlit ejection order, which statistics
		// replay depends on). Cross-shard wires are polled from the foreign
		// lists exactly as before; their deliveries only add to commutative
		// per-port state, so processing them after the dirty wires of the
		// same kind cannot change results.
		now := e.now
		nrf := len(sh.rFlit)
		// Sweep-size counters; folded into the shard's profile block only
		// when profiling is on (register increments otherwise).
		var dirtyFlit, dirtyCred int64
		for wi, w := range sh.flitDirty {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				dirtyFlit++
				var l *router.Link
				if i < nrf {
					b := &sh.rFlit[i]
					l = b.link
					if f, ok := l.ShiftFlits(now); ok {
						b.r.DeliverFlit(b.dir, f)
					}
				} else {
					b := &sh.nFlit[i-nrf]
					l = b.link
					if f, ok := l.ShiftFlits(now); ok {
						b.ni.DeliverFlit(f, now)
					}
				}
				if l.FlitsBusy() {
					keep |= 1 << (uint(i) & 63)
				}
			}
			sh.flitDirty[wi] = keep
		}
		for _, i := range sh.foreignFlit {
			b := &sh.rFlit[i]
			if !b.link.FlitsBusy() {
				continue
			}
			if f, ok := b.link.ShiftFlits(now); ok {
				b.r.DeliverFlit(b.dir, f)
			}
		}
		nrc := len(sh.rCred)
		for wi, w := range sh.credDirty {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				dirtyCred++
				var l *router.Link
				if i < nrc {
					b := &sh.rCred[i]
					l = b.link
					if vc, ok := l.ShiftCredits(now); ok {
						b.r.DeliverCredit(b.dir, vc)
					}
				} else {
					b := &sh.nCred[i-nrc]
					l = b.link
					if vc, ok := l.ShiftCredits(now); ok {
						b.ni.DeliverCredit(vc)
					}
				}
				if l.CreditsBusy() {
					keep |= 1 << (uint(i) & 63)
				}
			}
			sh.credDirty[wi] = keep
		}
		for _, i := range sh.foreignCred {
			b := &sh.rCred[i]
			if !b.link.CreditsBusy() {
				continue
			}
			if vc, ok := b.link.ShiftCredits(now); ok {
				b.r.DeliverCredit(b.dir, vc)
			}
		}
		if p := e.prof; p != nil {
			sp := &p.shards[sh.idx]
			sp.dirtyFlit += dirtyFlit
			sp.dirtyCred += dirtyCred
		}
	case phaseCompute:
		// Armed-component sweep: a router's wake bit is set by flit arrival
		// (phase 1, this shard) and cleared here once its work counter hits
		// zero; an NI's is set at injection. A stalled router keeps its bit
		// (its work cannot drain while frozen), so fault windows never
		// detach a busy router from the sweep.
		now := e.now
		soa := sh.soa
		var armedR, armedN int64
		for wi, w := range soa.ArmedR {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				li := base + bits.TrailingZeros64(m)
				armedR++
				r := sh.routers[li]
				if e.faults == nil || !e.faults.RouterStalled(r.Node(), now) {
					r.Tick(now)
				}
				if soa.Work[li] > 0 {
					keep |= 1 << (uint(li) & 63)
				}
			}
			soa.ArmedR[wi] = keep
		}
		for wi, w := range soa.ArmedN {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				li := base + bits.TrailingZeros64(m)
				armedN++
				sh.nis[li].Tick(now)
				if soa.NIWork[li] > 0 {
					keep |= 1 << (uint(li) & 63)
				}
			}
			soa.ArmedN[wi] = keep
		}
		if p := e.prof; p != nil {
			sp := &p.shards[sh.idx]
			sp.routerTicks += armedR
			sp.niTicks += armedN
		}
	case phaseCongFill:
		// Every router relays, active or not: congestion values travel one
		// hop per cycle through quiet routers too.
		for _, r := range sh.routers {
			id := r.Node()
			for d := topology.North; d < topology.NumDirs; d++ {
				next := r.CongNextRow(d)
				nb := e.neigh(id, d)
				if nb == -1 {
					for k := range next {
						next[k] = 0
					}
					continue
				}
				nr := e.routers[nb]
				next[0] = nr.InPortOccupancy(d)
				prev := nr.CongRow(d)
				copy(next[1:], prev[:len(next)-1])
			}
		}
	case phaseCongSwap:
		for _, r := range sh.routers {
			r.SwapCong()
		}
	}
}
