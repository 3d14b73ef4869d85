// The sharded parallel tick engine. The mesh is partitioned into contiguous
// node-range shards; each shard beyond the first gets a persistent worker
// goroutine, and every cycle advances in barrier-separated phases that mirror
// the register-latched two-phase semantics the serial network always had:
//
//	phase 1 (links):   DBAR's history publish, then shard-local link shift
//	                   and flit/credit delivery
//	phase 2 (compute): router and NI pipelines tick
//
// Sharding is bit-exact because all cross-component communication flows
// through latched links, and each wire is touched by exactly one shard per
// phase: a link's flit wire belongs to the shard of its receiver (which
// shifts and delivers it in phase 1 and is the only pusher of its credit wire
// in phase 2), and its credit wire belongs to the shard of its sender
// (symmetrically). DBAR's history (router.History) is written in phase 1,
// each shard its own routers' entries, and read across shards only in
// phase 2. Within a phase, shards share no mutable state.
package network

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"rair/internal/msg"
	"rair/internal/router"
)

type enginePhase uint8

const (
	phaseLinks enginePhase = iota
	phaseCompute
)

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

	// The flit wires of the links whose receiver the shard owns, the credit
	// wires of those whose sender it owns (ejection links have none).
	flits router.FlitSlab
	creds router.CreditSlab

	// soa is the shard's dense state store (see router.SoA); lo the first
	// node id of the shard's contiguous range.
	soa *router.SoA
	lo  int

	// ejections buffers OnEject calls made during phase 1 (only allocated
	// when the network has an OnEject observer).
	ejections []ejection

	// ticked is the set of routers the last compute phase ticked, which
	// publish to DBAR's history in the next links phase (nil without one).
	ticked []uint64
}

// engine drives the shards. It deliberately holds no reference back to the
// Network so that worker goroutines (which capture the engine) never keep an
// abandoned Network alive; the Network's finalizer can then stop them.
type engine struct {
	part   partition
	shards []*shard
	now    int64

	// hist is DBAR's congestion view, nil unless the selector reads it.
	hist *router.History

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

// newEngine builds one shard per range of part and starts one persistent
// worker per shard beyond the first; the caller gives each shard its store
// before the first phase runs. The hand-off spins only when the shards fit
// the Ps: a spinner beyond them would burn the slice a runnable shard needs.
func newEngine(routers []*router.Router, nis []*router.NI, part partition) *engine {
	e := &engine{part: part, shards: make([]*shard, part.s),
		spin: part.s <= runtime.GOMAXPROCS(0)}
	for i := range e.shards {
		lo, hi := part.bounds(i)
		e.shards[i] = &shard{idx: i, routers: routers[lo:hi], nis: nis[lo:hi], lo: lo}
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

// bind lays out every shard's slabs, counted to allocate them exactly, and
// hands each pushing end its handle. A flit wire belongs to its receiver's
// shard, a credit wire to its sender's; either is foreign when they differ.
// Router receivers come before NIs, each in table order, so ejection links
// are swept in node order — the order ejections replay in.
func (e *engine) bind(links []link, latency int) {
	nFlit, nCred := make([]int, len(e.shards)), make([]int, len(e.shards))
	for _, l := range links {
		nFlit[e.part.of(l.dst.Node)]++
		if !l.dst.NI {
			nCred[e.part.of(l.src.Node)]++
		}
	}
	for i, sh := range e.shards {
		sh.flits.Init(nFlit[i], sh.lo)
		sh.creds.Init(nCred[i], sh.lo)
	}
	for _, toNI := range [...]bool{false, true} {
		for _, l := range links {
			src, dst := e.shardOf(l.src.Node), e.shardOf(l.dst.Node)
			if l.dst.NI == toNI {
				w := dst.flits.Add(latency, l.dst, src != dst)
				if l.src.NI {
					src.nis[l.src.Node-src.lo].ConnectInjection(w)
				} else {
					src.routers[l.src.Node-src.lo].ConnectOut(l.src.Dir, w)
				}
			}
			if l.src.NI == toNI && !l.dst.NI {
				dst.routers[l.dst.Node-dst.lo].ConnectIn(l.dst.Dir, src.creds.Add(l.src, src != dst))
			}
		}
	}
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
		if sh.ticked != nil {
			// Before the sweep delivers: bufFlits still holds last cycle's end.
			e.hist.Publish(sh.routers, sh.ticked)
		}
		dirtyFlit := sh.flits.Sweep(sh.routers, sh.nis, e.now)
		dirtyCred := sh.creds.Sweep(sh.routers, sh.nis)
		if p := e.prof; p != nil {
			sp := &p.shards[sh.idx]
			sp.dirtyFlit += dirtyFlit
			sp.dirtyCred += dirtyCred
		}
	case phaseCompute:
		now, soa := e.now, sh.soa
		copy(sh.ticked, soa.ArmedR)
		armedR := sweep(soa.ArmedR, soa.Work, func(li int) { sh.routers[li].Tick(now) })
		armedN := sweep(soa.ArmedN, soa.NIWork, func(li int) { sh.nis[li].Tick(now) })
		if p := e.prof; p != nil {
			sp := &p.shards[sh.idx]
			sp.routerTicks += armedR
			sp.niTicks += armedN
		}
	}
}

// sweep ticks every component armed in a shard's wake bitmap and keeps armed
// those whose work counter is still nonzero, returning how many it ticked. A
// router's bit is set by flit arrival (phase 1, this shard), an NI's at
// injection.
func sweep(armed []uint64, work []int32, tick func(li int)) (ticked int64) {
	for wi, w := range armed {
		if w == 0 {
			continue
		}
		keep := uint64(0)
		for m := w; m != 0; m &= m - 1 {
			li := wi<<6 + bits.TrailingZeros64(m)
			ticked++
			tick(li)
			if work[li] > 0 {
				keep |= 1 << (uint(li) & 63)
			}
		}
		armed[wi] = keep
	}
	return ticked
}
