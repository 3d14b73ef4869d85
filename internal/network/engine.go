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
	"runtime"
	"sort"
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

// wire is one direction of one link as seen by the shard that receives on
// it: the link and the receiver, router r's port dir or the NI (the other
// is nil). Each shard keeps its wires as values in two dense slices, so
// phase 1 is a tight loop of direct calls behind a two-way receiver branch.
type wire struct {
	link *router.Link
	r    *router.Router
	ni   *router.NI
	dir  topology.Dir // port at r
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

	// flit holds the flit wire of every link whose receiver the shard owns,
	// cred the credit wire of every link whose sender it owns (an ejection
	// link has none: the NI sink never returns a credit). Both are stable
	// filters of the network's link table, router receivers before NI
	// receivers; see bind.
	flit, cred []wire
	// flitNI and credNI are where the NI receivers start in flit and cred;
	// the sweep picks the receiver by index, which measured 5-8 % faster
	// over the link phase at 32×32 than testing the wire's r for nil.
	flitNI, credNI int

	// soa is the shard's dense state store (see router.SoA); lo the first
	// node id of the shard's contiguous range.
	soa *router.SoA
	lo  int

	// Dirty-wire bitmaps: bit i of flitDirty is flit[i], of credDirty
	// cred[i]. A push onto a shard-local wire sets its bit through the
	// link's wake mark; the phase-1 sweep clears a bit once the wire is idle
	// after processing. Cross-shard wires are kept on the foreign lists and
	// polled unconditionally (see bind).
	flitDirty []uint64
	credDirty []uint64

	foreignFlit []int32 // flit indices fed by another shard
	foreignCred []int32 // cred indices fed by another shard

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

	// mesh names each router's neighbors for the congestion relay.
	mesh *topology.Mesh

	// faults, when non-nil, stalls routers in the compute phase. Stall
	// decisions are pure hashes of (node, cycle), and the per-node stall
	// state is only touched by the node's owning shard, so fault injection
	// preserves the engine's bit-exactness across worker counts.
	faults *faults.Injector

	// prof, when non-nil, records the engine's self-profile (per-shard
	// phase timings, barrier waits, sweep sizes); see profile.go.
	prof *engineProf

	// cmd[i] feeds shard i+1's worker; shard 0 runs on the coordinator.
	// One slot, so a send never parks the coordinator on a polling worker.
	// spin is set when every shard can hold a P of its own; see recv.
	cmd  []chan enginePhase
	done chan struct{}
	spin bool
	stop sync.Once
}

// A hand-off receiver polls its channel up to handOffSpins times before it
// parks, yielding its P after each try past the first handOffYieldAfter.
const (
	handOffSpins      = 2048
	handOffYieldAfter = 256
)

// recv receives from c. With spin set it polls first: a parked goroutine
// takes tens of µs to wake, often on the other core, away from its shard's
// cache, while a phase at 32×32 lasts only ~100-200 µs. The yields let an
// oversubscribed process (more spinners than Ps) still progress, and the
// blocking receive at the end keeps an idle engine parked.
func recv[T any](c chan T, spin bool) (T, bool) {
	for i := 0; spin && i < handOffSpins; i++ {
		select {
		case v, ok := <-c:
			return v, ok
		default:
		}
		if i >= handOffYieldAfter {
			runtime.Gosched()
		}
	}
	v, ok := <-c
	return v, ok
}

// partition is the split of n nodes into s contiguous shards, shard i owning
// nodes [i*n/s, (i+1)*n/s). network.New computes it once and hands it to the
// engine, so the stores, the routers' slots in them and the shards cannot
// disagree about a boundary.
type partition struct{ n, s int }

// newPartition splits n nodes into max(1, workers) shards, capped at the
// node count.
func newPartition(n, workers int) partition {
	return partition{n: n, s: min(max(workers, 1), n)}
}

// bounds returns shard i's node range [lo, hi).
func (p partition) bounds(i int) (lo, hi int) { return i * p.n / p.s, (i + 1) * p.n / p.s }

// of returns the index of the shard owning node id: the first whose range
// ends beyond it (wiring-time only, so a search is cheap enough).
func (p partition) of(id int) int {
	return sort.Search(p.s, func(i int) bool { _, hi := p.bounds(i); return id < hi })
}

// newEngine builds one shard per range of part over the given stores and
// starts one persistent worker per shard beyond the first. The hand-off
// spins only when the shards fit the Ps: a spinner beyond them would burn
// the slice a runnable shard needs.
func newEngine(mesh *topology.Mesh, routers []*router.Router, nis []*router.NI, part partition, soas []*router.SoA) *engine {
	e := &engine{part: part, mesh: mesh, routers: routers, shards: make([]*shard, part.s),
		spin: part.s <= runtime.GOMAXPROCS(0)}
	for i := range e.shards {
		lo, hi := part.bounds(i)
		e.shards[i] = &shard{idx: i, routers: routers[lo:hi], nis: nis[lo:hi], soa: soas[i], lo: lo}
	}
	if s := part.s; s > 1 {
		e.cmd = make([]chan enginePhase, s-1)
		e.done = make(chan struct{}, s-1)
		for i := range e.cmd {
			e.cmd[i] = make(chan enginePhase, 1)
			go e.worker(e.cmd[i], e.shards[i+1])
		}
	}
	return e
}

// bind derives every shard's wires from the link table. A link's flit wire
// goes to the shard of its receiver (which shifts and delivers it in phase 1)
// and its credit wire to the shard of its sender. Either is foreign when the
// two shards differ: its pusher must never write this shard's bitmap, so the
// wire carries no wake mark and is polled every cycle instead. Only mesh
// links across a shard boundary are foreign — O(mesh width) per shard, their
// receivers always routers. Router receivers are bound before NI receivers,
// each in table order, so a sweep in index order visits mesh and injection
// links in wiring order, then ejection links in node order — the order
// ejection callbacks replay in.
func (e *engine) bind(links []router.LinkRecord) {
	for _, toNI := range [...]bool{false, true} {
		for _, sh := range e.shards {
			sh.flitNI, sh.credNI = len(sh.flit), len(sh.cred)
		}
		for _, rec := range links {
			src, dst := e.shardOf(rec.Src.Node), e.shardOf(rec.Dst.Node)
			if rec.Dst.NI == toNI {
				if src != dst {
					dst.foreignFlit = append(dst.foreignFlit, int32(len(dst.flit)))
				}
				dst.flit = append(dst.flit, dst.wireTo(rec.L, rec.Dst))
			}
			if rec.Src.NI == toNI && !rec.Dst.NI {
				if src != dst {
					src.foreignCred = append(src.foreignCred, int32(len(src.cred)))
				}
				src.cred = append(src.cred, src.wireTo(rec.L, rec.Src))
			}
		}
	}
	for _, sh := range e.shards {
		sh.flitDirty = attachWakes(sh.flit, sh.foreignFlit, (*router.Link).SetFlitWake)
		sh.credDirty = attachWakes(sh.cred, sh.foreignCred, (*router.Link).SetCreditWake)
	}
}

// wireTo returns the wire that delivers what arrives on l to end, a router
// port or NI of this shard.
func (sh *shard) wireTo(l *router.Link, end router.LinkEnd) wire {
	if end.NI {
		return wire{link: l, ni: sh.nis[end.Node-sh.lo]}
	}
	return wire{link: l, r: sh.routers[end.Node-sh.lo], dir: end.Dir}
}

// attachWakes returns a dirty bitmap over wires with every wire's wake mark
// attached to its bit, the foreign ones excepted.
func attachWakes(wires []wire, foreign []int32, setWake func(*router.Link, *uint64, uint8)) []uint64 {
	dirty := make([]uint64, (len(wires)+63)/64)
	for i := range wires {
		setWake(wires[i].link, &dirty[i>>6], uint8(i&63))
	}
	for _, i := range foreign {
		setWake(wires[i].link, nil, 0)
	}
	return dirty
}

// shardOf returns the shard owning node id.
func (e *engine) shardOf(id int) *shard { return e.shards[e.part.of(id)] }

func (e *engine) worker(cmd chan enginePhase, sh *shard) {
	for {
		ph, ok := recv(cmd, e.spin)
		if !ok {
			return
		}
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
	timed := e.prof != nil && len(e.cmd) > 0
	var start time.Time
	if timed {
		start = time.Now()
	}
	for range e.cmd {
		recv(e.done, e.spin)
	}
	if timed {
		e.prof.recordBarrier(ph, time.Since(start))
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
		// ascending index order, the order bind laid the wires out in (in
		// particular ejection order, which statistics replay depends on).
		// Cross-shard wires are polled from the foreign lists; their
		// deliveries only add to commutative per-port state, so processing
		// them after the dirty wires of the same kind cannot change results.
		now := e.now
		// Sweep-size counters; folded into the shard's profile block only
		// when profiling is on (register increments otherwise).
		var dirtyFlit, dirtyCred int64
		flitNI, credNI := sh.flitNI, sh.credNI
		for wi, w := range sh.flitDirty {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				dirtyFlit++
				// By value: addressed in place, &sh.flit[i] is re-derived
				// after each call below (1-2 % of the link phase).
				b := sh.flit[i]
				if f, ok := b.link.ShiftFlits(now); ok {
					if i < flitNI {
						b.r.DeliverFlit(b.dir, f)
					} else {
						b.ni.DeliverFlit(f, now)
					}
				}
				if b.link.FlitsBusy() {
					keep |= 1 << (uint(i) & 63)
				}
			}
			sh.flitDirty[wi] = keep
		}
		for _, i := range sh.foreignFlit {
			b := &sh.flit[i]
			if !b.link.FlitsBusy() {
				continue
			}
			if f, ok := b.link.ShiftFlits(now); ok {
				b.r.DeliverFlit(b.dir, f)
			}
		}
		for wi, w := range sh.credDirty {
			if w == 0 {
				continue
			}
			keep := uint64(0)
			base := wi << 6
			for m := w; m != 0; m &= m - 1 {
				i := base + bits.TrailingZeros64(m)
				dirtyCred++
				b := sh.cred[i]
				if vc, ok := b.link.ShiftCredits(now); ok {
					if i < credNI {
						b.r.DeliverCredit(b.dir, vc)
					} else {
						b.ni.DeliverCredit(vc)
					}
				}
				if b.link.CreditsBusy() {
					keep |= 1 << (uint(i) & 63)
				}
			}
			sh.credDirty[wi] = keep
		}
		for _, i := range sh.foreignCred {
			b := &sh.cred[i]
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
		// hop per cycle through quiet routers too — but only along links
		// that were wired, so never off the mesh or across a tile edge.
		for _, r := range sh.routers {
			for d := topology.North; d < topology.NumDirs; d++ {
				next := r.CongNextRow(d)
				if !r.Connected(d) {
					clear(next)
					continue
				}
				nr := e.routers[e.mesh.Neighbor(r.Node(), d)]
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
